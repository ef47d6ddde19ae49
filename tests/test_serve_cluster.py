"""The sharded cluster layer: routing, shared cache, quotas, billing.

Covers the PR 10 cluster guarantees:

* **Routing stability** (hypothesis property) — consistent hashing uses
  SHA-256 on a fixed ring, so any two routers with the same geometry
  agree on every key, across router rebuilds, processes and restarts.
  A handful of assignments are additionally pinned as literals: if the
  ring construction ever changes, these fail loudly (a silent reshuffle
  would invalidate every shard-affine cache in the field).
* **Consistent rebalance** — growing N -> N+1 shards only moves keys
  onto the new shard; no key moves between surviving shards.
* **Shared result cache** — one front-door cache spans all shards and
  replicas; per-shard caches are disabled; tenants share entries
  (tenant is attribution, not content).
* **Admission quotas** — a tenant at its in-flight quota is shed with
  ServerOverloaded *before* admission; other tenants are unaffected.
* **Load shedding** — shard backpressure propagates as
  ServerOverloaded and accepted work still completes correctly.
* **Billing parity** (hypothesis property) — requests served through
  the cluster (hash routing + per-shard coalescing + split billing)
  bill identically to solo ``run_kernel`` execution: outputs exact,
  energy within rel=1e-12 (the repo's bit-identity bar for split
  billing, same as ``tests/test_serve.py``).
"""

from __future__ import annotations

import asyncio
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import resolve_kernel, run_kernel
from repro.errors import ServeError, ServerOverloaded
from repro.serve import ServeRequest
from repro.serve.cluster import ClusterServer
from repro.serve.router import DEFAULT_VNODES, ShardRouter, route_key
from repro.serve.server import _default_run_batch


def run(coro):
    return asyncio.run(coro)


def output_lists(result):
    """A result's outputs as plain lists, for equality checks."""
    return {group: array.tolist() for group, array in result.outputs.items()}


def adder_request(request_id, a, b, *, width=8, **kwargs):
    return ServeRequest(
        id=request_id,
        kernel="adder",
        width=width,
        operands={"a": tuple(a), "b": tuple(b)},
        **kwargs,
    )


# -- router ------------------------------------------------------------------


#: Keys with realistic shape: kernel-ish names, serving widths, hex-ish
#: digests.  The property only needs *some* distribution over keys.
route_keys = st.tuples(
    st.text(st.characters(min_codepoint=ord("a"), max_codepoint=ord("z")),
            min_size=1, max_size=16),
    st.integers(min_value=1, max_value=63),
    st.text(st.sampled_from("0123456789abcdef"), min_size=4, max_size=16),
)


class TestShardRouter:
    @given(keys=st.lists(route_keys, min_size=1, max_size=32),
           shards=st.integers(min_value=1, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_routing_is_stable_across_router_restarts(self, keys, shards):
        """Two independently built routers agree on every key — the
        restart-stability property the shared cache depends on."""
        first = ShardRouter(shards)
        second = ShardRouter(shards)
        for kernel, width, digest in keys:
            assert (first.shard_for(kernel, width, digest)
                    == second.shard_for(kernel, width, digest))
            assert 0 <= first.shard_for(kernel, width, digest) < shards

    def test_assignments_pinned_across_processes(self):
        """Literal pins: the SHA-256 ring is process-independent, so
        these exact assignments hold in every interpreter, forever.
        If the ring construction changes, update them *deliberately* —
        it is a cache- and batching-affinity reshuffle."""
        router = ShardRouter(4)
        assert router.shard_for("adder", 32, "aaaa") == 2
        assert router.shard_for("word-compare", 32, "aaaa") == 2
        assert router.shard_for("cam-match", 48, "bbbb") == 0
        assert router.shard_for("comparator", 2, "cccc") == 2
        # Kernel names case-fold into one batching identity.
        assert router.shard_for("ADDER", 32, "aaaa") == 2

    def test_single_shard_takes_everything(self):
        router = ShardRouter(1)
        assert router.shard_for("adder", 32, "aaaa") == 0
        assert router.pick("adder", 32, "aaaa") == (0, 0)

    @given(keys=st.lists(route_keys, min_size=1, max_size=64),
           shards=st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_growing_the_ring_only_moves_keys_to_the_new_shard(
            self, keys, shards):
        """Consistency: N -> N+1 never reshuffles between survivors."""
        before = ShardRouter(shards)
        after = ShardRouter(shards + 1)
        for kernel, width, digest in keys:
            old = before.shard_for(kernel, width, digest)
            new = after.shard_for(kernel, width, digest)
            assert new == old or new == shards, (
                f"key moved between surviving shards {old} -> {new}")

    def test_replicas_round_robin_within_a_slot(self):
        router = ShardRouter(2, replicas=3)
        shard = router.shard_for("adder", 32, "aaaa")
        picks = [router.pick("adder", 32, "aaaa") for _ in range(6)]
        assert [p[0] for p in picks] == [shard] * 6
        assert [p[1] for p in picks] == [0, 1, 2, 0, 1, 2]

    def test_route_key_excludes_backend(self):
        """auto- and explicitly-routed twins must share one identity."""
        assert route_key("Adder", 32, "d1") == "adder|32|d1"

    def test_server_index_flattens_and_bounds(self):
        router = ShardRouter(3, replicas=2)
        assert router.servers == 6
        assert router.server_index(2, 1) == 5
        with pytest.raises(ServeError):
            router.server_index(3, 0)
        with pytest.raises(ServeError):
            router.server_index(0, 2)

    def test_geometry_validation(self):
        for bad in ({"shards": 0}, {"shards": 1, "replicas": 0},
                    {"shards": 1, "vnodes": 0}):
            with pytest.raises(ServeError):
                ShardRouter(bad.pop("shards"), **bad)
        assert ShardRouter(2).vnodes == DEFAULT_VNODES


# -- cluster behaviour -------------------------------------------------------


class TestClusterServing:
    def test_serves_across_shards_and_replicas(self):
        requests = [adder_request(f"r{i}", [i], [i + 1]) for i in range(12)]

        async def scenario():
            async with ClusterServer(shards=3, replicas=2) as cluster:
                return await cluster.submit_many(requests), cluster.stats()

        results, stats = run(scenario())
        for i, result in enumerate(results):
            assert result.id == f"r{i}"
            assert result.outputs["sum"].tolist() == [2 * i + 1]
        assert stats["servers"] == 6
        assert len(stats["shard_stats"]) == 6

    def test_shared_cache_spans_shards_and_tenants(self):
        async def scenario():
            async with ClusterServer(shards=3, replicas=2) as cluster:
                first = await cluster.submit(
                    adder_request("first", [3], [4], tenant="tenant-a"))
                repeat = await cluster.submit(
                    adder_request("again", [3], [4], tenant="tenant-b"))
                return first, repeat, cluster.stats()

        first, repeat, stats = run(scenario())
        assert not first.cached
        assert repeat.cached
        assert repeat.id == "again"
        assert output_lists(repeat) == output_lists(first)
        # One entry, held at the front door — the per-shard caches are
        # disabled in favour of the shared one.
        assert stats["cache_entries"] == 1
        for shard in stats["shard_stats"]:
            assert shard["cache_entries"] == 0

    def test_auto_and_explicit_backend_share_one_cache_entry(self):
        """The ordering contract: auto resolves *before* the cache
        probe, so the resolved twin of an explicit request hits."""
        async def scenario():
            async with ClusterServer(shards=2) as cluster:
                explicit = await cluster.submit(adder_request(
                    "explicit", [5], [6], backend="functional"))
                auto = await cluster.submit(adder_request(
                    "auto", [5], [6], backend="auto"))
                return explicit, auto

        explicit, auto = run(scenario())
        assert not explicit.cached
        assert auto.cached
        assert output_lists(auto) == output_lists(explicit)

    def test_quota_sheds_hot_tenant_before_admission(self):
        release = threading.Event()

        def gated_run_batch(request, operands, spec):
            release.wait(timeout=10)
            return _default_run_batch(request, operands, spec)

        async def scenario():
            async with ClusterServer(shards=1, quota=1,
                                     run_batch=gated_run_batch) as cluster:
                hot = asyncio.ensure_future(cluster.submit(adder_request(
                    "hot", [1], [2], tenant="tenant-hot")))
                # Wait until the hot tenant's request is admitted.
                for _ in range(200):
                    if cluster.stats()["tenants_inflight"].get("tenant-hot"):
                        break
                    await asyncio.sleep(0.005)
                assert cluster.stats()["tenants_inflight"] == {"tenant-hot": 1}

                with pytest.raises(ServerOverloaded, match="quota"):
                    await cluster.submit(adder_request(
                        "over", [3], [4], tenant="tenant-hot"))

                release.set()
                # The other tenant was never blocked by the hot one.
                cold = await cluster.submit(adder_request(
                    "cold", [5], [6], tenant="tenant-cold"))
                served = await hot
                # The shed slot frees on completion: the tenant can
                # come back.
                retry = await cluster.submit(adder_request(
                    "retry", [7], [8], tenant="tenant-hot"))
                return served, cold, retry

        served, cold, retry = run(scenario())
        assert served.outputs["sum"].tolist() == [3]
        assert cold.outputs["sum"].tolist() == [11]
        assert retry.outputs["sum"].tolist() == [15]

    def test_shard_backpressure_propagates_and_loses_nothing(self):
        release = threading.Event()

        def gated_run_batch(request, operands, spec):
            release.wait(timeout=10)
            return _default_run_batch(request, operands, spec)

        burst = [adder_request(f"b{i}", [i], [i]) for i in range(16)]

        async def scenario():
            async with ClusterServer(shards=1, max_batch_size=1,
                                     queue_limit=2, cache_capacity=0,
                                     run_batch=gated_run_batch) as cluster:
                pending = [asyncio.ensure_future(cluster.submit(r))
                           for r in burst]
                await asyncio.sleep(0.05)  # let the queue fill and shed
                release.set()
                return await asyncio.gather(*pending,
                                            return_exceptions=True)

        outcomes = run(scenario())
        rejected = [o for o in outcomes if isinstance(o, ServerOverloaded)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        unexpected = [o for o in outcomes
                      if isinstance(o, BaseException)
                      and not isinstance(o, ServerOverloaded)]
        assert not unexpected, unexpected[:3]
        assert rejected, "queue_limit=2 under a 16-request burst must shed"
        for result in served:
            i = int(result.id[1:])
            assert result.outputs["sum"].tolist() == [2 * i], (
                "an accepted request was lost or corrupted by shedding")

    def test_drain_closes_the_front_door(self):
        async def scenario():
            cluster = ClusterServer(shards=2)
            async with cluster:
                await cluster.submit(adder_request("ok", [1], [1]))
            with pytest.raises(ServeError, match="draining"):
                await cluster.submit(adder_request("late", [1], [1]))
            stats = cluster.stats()
            assert stats["closed"] and stats["draining"]
            with pytest.raises(ServeError, match="closed"):
                async with cluster:
                    pass

        run(scenario())

    def test_constructor_validation(self):
        with pytest.raises(ServeError, match="quota"):
            ClusterServer(quota=0)
        with pytest.raises(ServeError, match="shards"):
            ClusterServer(shards=0)

    def test_describe_and_introspection(self):
        cluster = ClusterServer(shards=3, replicas=2, quota=8)
        assert cluster.shards == 3
        assert cluster.replicas == 2
        assert len(cluster.servers) == 6
        assert "quota=8" in cluster.describe()


# -- billing parity (satellite: cluster batching never changes bills) --------


word8 = st.integers(min_value=0, max_value=255)


class TestClusterBillingMatchesSolo:
    @given(
        batches=st.lists(
            st.tuples(
                st.sampled_from(["adder", "word-compare"]),
                st.lists(st.tuples(word8, word8), min_size=1, max_size=6),
            ),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_cluster_batched_billing_is_bit_identical_to_solo(self, batches):
        """Hash routing + coalescing + split billing never change what
        a request is billed — same property the single server pins in
        ``tests/test_serve.py``, through the full cluster path."""
        requests = [
            ServeRequest(
                id=f"r{i}", kernel=kernel, width=8,
                operands={"a": tuple(a for a, _ in pairs),
                          "b": tuple(b for _, b in pairs)},
            )
            for i, (kernel, pairs) in enumerate(batches)
        ]

        async def scenario():
            async with ClusterServer(shards=2, cache_capacity=0) as cluster:
                return await cluster.submit_many(requests)

        served = run(scenario())
        for request, result in zip(requests, served):
            alone = run_kernel(
                resolve_kernel(request.kernel, request.width),
                {k: list(v) for k, v in request.operands.items()},
            )
            assert result.id == request.id
            assert result.words == alone.words
            for group in alone.word_outputs:
                assert (result.outputs[group].tolist()
                        == alone.word(group).tolist()), (
                    f"{request.kernel} outputs diverged through the cluster")
            assert result.energy == pytest.approx(alone.energy, rel=1e-12)
