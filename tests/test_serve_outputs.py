"""Served outputs are read-only uint64 word arrays on every path.

``ServeResult.outputs`` maps each word group to the array the engine
assembled, frozen because result-cache hits share it.  These tests pin
that type on the in-process server (solo, coalesced and cached
results), the cluster, the local client and the JSONL wire client, and
that the JSONL record still carries plain integer lists.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro import api
from repro.engine import resolve_kernel, run_kernel
from repro.serve import result_to_dict
from repro.serve.cluster import ClusterServer
from repro.serve.server import KernelServer


def adder(request_id, a, b):
    return api.request(id=request_id, kernel="adder", width=8,
                       backend="functional", operands={"a": a, "b": b})


def assert_frozen_words(result, expected):
    """*result* holds read-only uint64 arrays equal to *expected*."""
    assert set(result.outputs) == set(expected)
    for group, words in expected.items():
        array = result.outputs[group]
        assert isinstance(array, np.ndarray)
        assert array.dtype == np.uint64
        assert not array.flags.writeable
        assert array.tolist() == words
        with pytest.raises(ValueError):
            array[0] = 99


FIRST = {"sum": [4, 6], "cout": [0, 0]}
SECOND = {"sum": [15], "cout": [0]}


@pytest.mark.parametrize("make_server", [
    lambda: KernelServer(),
    lambda: ClusterServer(shards=2),
], ids=["server", "cluster"])
def test_solo_coalesced_and_cached_results(make_server):
    async def scenario():
        async with make_server() as server:
            solo = await server.submit(adder("solo", [1, 2], [3, 4]))
            together = await server.submit_many([
                adder("x", [5, 6], [7, 8]), adder("y", [7], [8])])
            repeat = await server.submit(adder("again", [1, 2], [3, 4]))
            return solo, together, repeat

    solo, (x, y), repeat = asyncio.run(scenario())
    assert_frozen_words(solo, FIRST)
    assert x.batch_requests == y.batch_requests == 2  # split from one batch
    assert_frozen_words(x, {"sum": [12, 14], "cout": [0, 0]})
    assert_frozen_words(y, SECOND)
    assert repeat.cached
    # The write above was refused, so the shared array is intact.
    assert_frozen_words(repeat, FIRST)


@pytest.mark.parametrize("target", ["local", "cluster", "jsonl"])
def test_client_transports(target):
    with api.connect(target=target) as client:
        first = client.submit(adder("a", [1, 2], [3, 4]))
        assert_frozen_words(first, FIRST)
        repeat = client.submit(adder("b", [1, 2], [3, 4]))
        assert repeat.cached
        assert_frozen_words(repeat, FIRST)
        assert_frozen_words(client.submit(adder("c", [7], [8])), SECOND)


def test_result_to_dict_writes_integer_lists():
    with api.connect() as client:
        result = client.submit(adder("r", [1, 2], [3, 4]))
    record = result_to_dict(result)
    assert record["outputs"] == FIRST
    assert all(type(word) is int
               for words in record["outputs"].values() for word in words)
    assert json.loads(json.dumps(record))["outputs"] == FIRST


def test_coalesced_members_bill_and_answer_like_split():
    """Members get read-only slices of one assembled batch, billed bit
    for bit as :meth:`BatchResult.split` bills them."""
    batches = []

    def capture(request, operands, spec):
        batch = run_kernel(resolve_kernel(request.kernel, request.width),
                           operands or {}, backend=request.backend,
                           spec=spec)
        batches.append(batch)
        return batch

    members = [adder("p", [1, 2, 3], [4, 5, 6]), adder("q", [250], [9]),
               adder("r", [7, 8], [1, 1])]

    async def scenario():
        async with KernelServer(run_batch=capture) as server:
            return await server.submit_many(members)

    results = asyncio.run(scenario())
    assert len(batches) == 1
    parts = batches[0].split([3, 1, 2])
    for result, part in zip(results, parts):
        assert result.batch_requests == 3
        assert result.words == part.words
        assert result.energy == part.energy
        assert result.latency == part.latency
        assert result.steps_per_word == part.steps_per_word
        assert_frozen_words(result, {group: part.word(group).tolist()
                                     for group in part.word_outputs})

