"""The unified client facade: one Client surface, three transports.

``api.connect(target=...)`` must hand back the same protocol object
whether requests are served by an in-process ``KernelServer``, a
sharded ``ClusterServer``, or a real JSONL wire loop — same results,
same typed errors, same ``submit/submit_many/stats/close`` shape.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro import api
from repro.errors import (
    DeadlineExceeded,
    EngineError,
    ServeError,
    ServerOverloaded,
)
from repro.serve.client import (
    Client,
    JsonlClient,
    ServerClient,
    _result_from_wire,
    connect,
)
from repro.serve.cluster import ClusterServer
from repro.serve.server import KernelServer


def add_request(request_id, a, b):
    return api.request(id=request_id, kernel="adder", width=8,
                       operands={"a": [a], "b": [b]})


class TestConnectTargets:
    def test_local_default_fronts_a_kernel_server(self):
        with connect("local") as client:
            assert isinstance(client, ServerClient)
            assert isinstance(client.server, KernelServer)
            result = client.submit(add_request("one", 2, 3))
            assert result.outputs["sum"].tolist() == [5]
            assert client.stats()["transport"] == "local"

    def test_local_upgrades_to_cluster_when_sharded(self):
        with connect("local", shards=2, quota=8) as client:
            assert isinstance(client.server, ClusterServer)
            assert client.server.shards == 2
            stats = client.stats()
            assert stats["transport"] == "cluster"
            assert stats["quota"] == 8

    def test_cluster_target_is_always_sharded(self):
        with connect("cluster") as client:
            assert isinstance(client.server, ClusterServer)
            result = client.submit(add_request("c", 10, 20))
            assert result.outputs["sum"].tolist() == [30]

    def test_instance_target_wraps_without_options(self):
        with connect(KernelServer()) as client:
            assert client.submit(add_request("i", 1, 1)).outputs["sum"].tolist() == [2]
        with pytest.raises(ServeError, match="not both"):
            connect(KernelServer(), max_batch_size=4)
        with pytest.raises(ServeError, match="not both"):
            connect(KernelServer(), shards=2)

    def test_unknown_target_raises(self):
        with pytest.raises(ServeError, match="grpc"):
            connect("grpc")

    def test_every_transport_satisfies_the_protocol(self):
        with connect("local") as local, \
                connect("jsonl") as jsonl:
            assert isinstance(local, Client)
            assert isinstance(jsonl, Client)

    def test_api_connect_is_the_facade_entry_point(self):
        with api.connect(target="local") as client:
            assert isinstance(client, Client)
            assert client.submit(add_request("a", 4, 4)).outputs["sum"].tolist() == [8]


class TestServerClient:
    def test_submit_many_preserves_order_and_errors(self):
        with connect("local") as client:
            results = client.submit_many(
                [add_request(f"r{i}", i, i) for i in range(4)])
            assert [r.id for r in results] == ["r0", "r1", "r2", "r3"]
            outcomes = client.submit_many(
                [add_request("ok", 1, 2),
                 api.request(id="bad", kernel="no-such-kernel", width=8)],
                return_exceptions=True)
            assert outcomes[0].outputs["sum"].tolist() == [3]
            # In-process the engine's own typed error comes through;
            # over the wire it would arrive as a ServeError record.
            assert isinstance(outcomes[1], EngineError)

    def test_close_is_idempotent_and_final(self):
        client = connect("local")
        client.close()
        client.close()
        with pytest.raises(ServeError, match="closed"):
            client.submit(add_request("late", 1, 1))


class TestJsonlClient:
    def test_round_trip_restores_caller_id(self):
        with connect("jsonl") as client:
            assert isinstance(client, JsonlClient)
            result = client.submit(add_request("mine", 7, 8))
            # The wire used a minted id; the caller sees their own.
            assert result.id == "mine"
            assert result.outputs["sum"].tolist() == [15]
            stats = client.stats()
            assert stats["transport"] == "jsonl"
            assert stats["counts"].get("ok") == 1
            assert stats["pending"] == 0

    def test_matches_in_process_answers(self):
        requests = [add_request(f"r{i}", i, 2 * i) for i in range(6)]
        with connect("jsonl") as wire, \
                connect("local") as local:
            over_wire = wire.submit_many(requests)
            in_process = local.submit_many(requests)
        for w, p in zip(over_wire, in_process):
            assert w.id == p.id
            assert ({k: v.tolist() for k, v in w.outputs.items()}
                    == {k: v.tolist() for k, v in p.outputs.items()})
            assert w.energy == p.energy  # json round-trips doubles exactly

    def test_uint64_operands_cross_the_wire(self):
        """A request built with NumPy uint64 operands (which the local
        servers take as they are) is encoded as Python ints, answered
        as in process, and leaves no slot pending."""
        request = dataclasses.replace(
            add_request("np", 0, 0),
            operands={"a": np.array([1, 200, 255], dtype=np.uint64),
                      "b": np.array([2, 100, 1], dtype=np.uint64)})
        with connect("jsonl") as wire, connect("local") as local:
            over_wire = wire.submit(request)
            in_process = local.submit(request)
            assert wire.stats()["pending"] == 0
        assert over_wire.outputs.keys() == in_process.outputs.keys()
        for name, words in in_process.outputs.items():
            assert over_wire.outputs[name].tolist() == words.tolist()

    def test_unencodable_request_leaves_nothing_pending(self):
        request = dataclasses.replace(
            add_request("odd", 0, 0), params={"x": object()})
        with connect("jsonl") as client:
            with pytest.raises(TypeError):
                client.submit(request)
            assert client.stats()["pending"] == 0
            assert client.submit(add_request("after", 1, 2)).outputs[
                "sum"].tolist() == [3]

    def test_clustered_jsonl(self):
        with connect("jsonl", shards=2) as client:
            result = client.submit(add_request("sharded", 3, 9))
            assert result.outputs["sum"].tolist() == [12]

    def test_wire_errors_map_to_typed_exceptions(self):
        with connect("jsonl") as client:
            with pytest.raises(ServeError):
                client.submit(
                    api.request(id="bad", kernel="no-such-kernel", width=8))
            # The loop keeps serving after an error record.
            assert client.submit(add_request("after", 1, 1)).outputs[
                "sum"].tolist() == [2]

    def test_server_side_failure_raises_instead_of_hanging(self):
        """A line the serve loop cannot encode still answers: the
        submit raises ServeError (bounded, so a regression fails here
        instead of hanging)."""
        class Unencodable(KernelServer):
            async def submit(self, request):
                result = await super().submit(request)
                return dataclasses.replace(result, metrics={"x": object()})

        outcome = {}

        with connect("jsonl", server=Unencodable()) as client:
            def call():
                try:
                    client.submit(add_request("odd", 1, 1))
                except ServeError as exc:
                    outcome["error"] = exc

            caller = threading.Thread(target=call, daemon=True)
            caller.start()
            caller.join(timeout=30)
            assert not caller.is_alive(), "JsonlClient.submit hung"
        assert "JSON serializable" in str(outcome["error"])

    def test_error_record_mapping_table(self):
        """rejected/deadline/error wire statuses -> the typed errors."""
        request = add_request("x", 1, 1)
        with pytest.raises(ServerOverloaded, match="full"):
            _result_from_wire({"status": "rejected", "error": "full"}, request)
        with pytest.raises(DeadlineExceeded, match="late"):
            _result_from_wire({"status": "deadline", "error": "late"}, request)
        with pytest.raises(ServeError, match="boom"):
            _result_from_wire({"status": "error", "error": "boom"}, request)

    def test_close_drains_then_refuses(self):
        client = connect("jsonl")
        client.submit(add_request("pre", 1, 2))
        client.close()
        assert client.stats()["closed"]
        with pytest.raises(ServeError, match="closed"):
            client.submit(add_request("post", 1, 2))


class TestApiRequestHelper:
    def test_builds_a_serve_request(self):
        request = api.request(kernel="Adder", id="r1", width=16,
                              operands={"a": [1.0, 2], "b": (3, 4)},
                              tenant="team-a", deadline_s=2.5)
        assert request.kernel == "Adder"
        assert request.operands == {"a": (1, 2), "b": (3, 4)}
        assert request.tenant == "team-a"
        assert request.deadline_s == 2.5
        assert request.backend == "auto"

    def test_tenant_is_attribution_not_content(self):
        plain = api.request(kernel="adder", operands={"a": [1], "b": [2]})
        tagged = api.request(kernel="adder", operands={"a": [1], "b": [2]},
                             tenant="team-b")
        assert plain.digest == tagged.digest

    def test_evaluate_requests_pin_functional_backend(self):
        request = api.request(kind="evaluate", params={"application": "dna"})
        assert request.backend == "functional"
