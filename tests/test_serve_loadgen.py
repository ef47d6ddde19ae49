"""The synthetic load generator: determinism, skew, burstiness.

The benches and cluster tests lean on three loadgen promises: the same
profile generates the identical request list in every process; the
zipfian law actually skews (hot shapes and hot tenants exist); and the
MMPP arrival schedule actually bursts (gap distribution is bimodal,
not uniform).  Each is pinned here, plus the run_load reduction.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ServeError, ServerOverloaded
from repro.serve.loadgen import (
    LoadProfile,
    LoadReport,
    arrival_gaps,
    generate,
    run_load,
)
from repro.serve.server import KernelServer


class TestGenerate:
    def test_same_profile_generates_identical_requests(self):
        profile = LoadProfile(shapes=16, seed=21)
        first = generate(profile, 64)
        second = generate(profile, 64)
        assert first == second
        assert [r.digest for r in first] == [r.digest for r in second]

    def test_different_seeds_generate_different_mixes(self):
        base = LoadProfile(shapes=16, seed=1)
        other = LoadProfile(shapes=16, seed=2)
        assert ([r.digest for r in generate(base, 64)]
                != [r.digest for r in generate(other, 64)])

    def test_zipfian_skew_makes_hot_shapes_and_tenants(self):
        profile = LoadProfile(shapes=32, zipf_s=1.3, tenants=8, seed=5)
        requests = generate(profile, 512)
        by_shape: dict = {}
        by_tenant: dict = {}
        for request in requests:
            by_shape[request.digest] = by_shape.get(request.digest, 0) + 1
            by_tenant[request.tenant] = by_tenant.get(request.tenant, 0) + 1
        shape_counts = sorted(by_shape.values(), reverse=True)
        # A genuinely skewed mix: the hottest shape dwarfs the median.
        assert shape_counts[0] >= 4 * shape_counts[len(shape_counts) // 2]
        assert max(by_tenant.values()) > min(by_tenant.values())

    def test_requests_are_well_formed(self):
        profile = LoadProfile(
            kernels=(("adder", 16), ("comparator", 2)), shapes=8,
            words=4, deadline_fraction=0.5, seed=9)
        requests = generate(profile, 64)
        deadlines = [r for r in requests if r.deadline_s is not None]
        assert deadlines, "deadline_fraction=0.5 produced no deadlines"
        assert len(deadlines) < len(requests), "not everything has one"
        low, high = profile.deadline_range_s
        for request in requests:
            assert request.id.startswith("load-")
            assert request.tenant.startswith("tenant-")
            assert set(request.operands) == {"a", "b"}
            if request.kernel == "comparator":
                assert all(word < 4 for word in request.operands["a"])
            if request.deadline_s is not None:
                assert low <= request.deadline_s <= high

    def test_profile_validation(self):
        for bad in (dict(kernels=()), dict(shapes=0), dict(words=0),
                    dict(tenants=0), dict(deadline_fraction=1.5)):
            with pytest.raises(ServeError):
                LoadProfile(**bad)


class TestArrivalGaps:
    def test_closed_loop_profile_has_no_gaps(self):
        assert arrival_gaps(LoadProfile(), 32) == [0.0] * 32

    def test_mmpp_gaps_are_bursty_and_deterministic(self):
        profile = LoadProfile(rate_hz=100.0, burst_rate_hz=10_000.0,
                              p_burst=0.2, p_calm=0.2, seed=3)
        gaps = arrival_gaps(profile, 256)
        assert gaps == arrival_gaps(profile, 256)
        assert len(gaps) == 256 and all(g >= 0.0 for g in gaps)
        # Bimodal: plenty of gaps far below the calm mean (burst mode)
        # AND gaps near/above it — a uniform Poisson shows no such gulf.
        calm_mean = 1.0 / 100.0
        burst_like = [g for g in gaps if g < calm_mean / 10]
        calm_like = [g for g in gaps if g > calm_mean / 2]
        assert len(burst_like) > 16, "burst state never engaged"
        assert len(calm_like) > 16, "calm state never engaged"

    def test_pacing_does_not_perturb_the_request_mix(self):
        calm = LoadProfile(seed=4)
        paced = LoadProfile(rate_hz=50.0, seed=4)
        assert ([r.digest for r in generate(calm, 32)]
                == [r.digest for r in generate(paced, 32)])


class TestRunLoad:
    def test_report_tallies_and_latencies(self):
        profile = LoadProfile(shapes=4, words=2, seed=6)

        async def scenario():
            async with KernelServer() as server:
                first = await run_load(server, profile, count=24)
                again = await run_load(server, profile, count=24)
                return first, again

        report, again = asyncio.run(scenario())
        assert report.requests == 24
        assert report.served == 24
        # The replay of the same deterministic mix is fully cached.
        assert again.counts == {"cached": 24}
        assert len(report.latencies_s) == 24
        assert report.energy_j > 0.0
        assert report.throughput_rps > 0.0
        assert (report.latency_quantile(0.5)
                <= report.latency_quantile(0.99))
        assert "p99" in report.describe()

    def test_shed_requests_are_counted_not_raised(self):
        profile = LoadProfile(shapes=2, words=1, seed=8)

        class AlwaysFull:
            async def submit(self, request):
                raise ServerOverloaded("full")

        report = asyncio.run(run_load(AlwaysFull(), profile, count=10))
        assert report.counts == {"rejected": 10}
        assert report.served == 0
        assert report.latencies_s == []

    def test_empty_report_quantile(self):
        assert LoadReport().latency_quantile(0.99) == 0.0
