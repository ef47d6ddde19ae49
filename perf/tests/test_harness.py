"""Tests of the benchmark harness itself (not of the program it measures).

    python -m pytest perf/tests -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import random
import re
import statistics
import sys
import types

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERF)

import common  # noqa: E402

common.use_src()

import compare  # noqa: E402
import ladder  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = common.load_benchmark()


# -- schedules --------------------------------------------------------------------


def _schedules(seed: int):
    rng = random.Random(seed)
    return (workloads.small_specs(rng, 300, True),
            workloads.arrival_offsets(rng, 300, workloads.OPEN_RATE_HZ),
            list(workloads.bulk_specs(random.Random(seed), 3)),
            workloads.crossbar_inputs(seed, 50))


def _same_crossbar(x, y):
    return all((a == b).all() for a, b in zip(x, y))


def test_schedules_repeat_for_one_seed_and_differ_across_seeds():
    first, again, other = _schedules(1), _schedules(1), _schedules(2)
    assert first[:3] == again[:3]
    assert _same_crossbar(first[3], again[3])
    for mine, theirs in zip(first[:3], other[:3]):
        assert mine != theirs
    assert not _same_crossbar(first[3], other[3])


def test_schedule_mix_is_fixed_and_only_its_order_is_seeded():
    specs, offsets, _, (_, _, writes, _, _) = _schedules(3)
    distinct = list({id(s): s for s in specs}.values())
    assert len(specs) - len(distinct) == 75  # exactly 25 % repeats
    kernels = [(s[0], s[1]) for s in distinct]
    assert {kernels.count(k) for k in workloads.KERNELS} <= {56, 57}
    assert offsets == sorted(offsets) and offsets[-1] <= 1.0
    assert writes.sum() == round(workloads.WRITE_SHARE * 50)
    compares = [s for s in specs if s[0] != "adder"]
    equal = sum(x == y for s in compares for x, y in zip(s[2], s[3]))
    total = sum(len(s[2]) for s in compares)
    assert 0.35 < equal / total < 0.65


def test_op_count_has_a_p90_floor():
    for name in workloads.WORKLOADS:
        assert workloads.op_count(name, 0.1) == workloads.MIN_OPS
        assert workloads.op_count(name, BENCH["run_seconds"]) >= 900


# -- statistics -------------------------------------------------------------------


@pytest.mark.parametrize("size", [2, 3, 10, 101, 1000])
def test_percentile_agrees_with_statistics_quantiles(size):
    rng = random.Random(size)
    values = [rng.expovariate(1.0) for _ in range(size)]
    cuts = statistics.quantiles(values, n=100)
    for p in (1, 50, 90, 99):
        assert common.percentile(values, p) == cuts[p - 1]
    assert common.quartiles(values) == statistics.quantiles(values, n=4)
    assert common.percentile([4.0], 90) == 4.0


# -- wrappers ---------------------------------------------------------------------


class _Boom(Exception):
    pass


def _fake_package():
    package = types.ModuleType("perffake")
    inner = types.ModuleType("perffake.inner")
    user = types.ModuleType("perffake.user")

    def add(x, y):
        if x is None:
            raise _Boom("no x")
        return x + y

    class Thing:
        def __init__(self, id):
            self.id = id

        def twice(self, value):
            return 2 * value

        @property
        def label(self):
            return f"thing-{self.id}"

        async def later(self, value):
            await asyncio.sleep(0)
            if value is None:
                raise _Boom("no value")
            return value + 1

    inner.add, inner.Thing = add, Thing
    user.add = add  # a `from .inner import add` binding
    package.inner, package.user = inner, user
    modules = {"perffake": package, "perffake.inner": inner,
               "perffake.user": user}
    return modules, add, Thing


@pytest.fixture
def fake(monkeypatch):
    modules, add, thing = _fake_package()
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    return modules, add, thing


def test_wrappers_pass_values_and_exceptions_and_restore(fake):
    modules, add, Thing = fake
    originals = {"twice": Thing.__dict__["twice"],
                 "label": Thing.__dict__["label"],
                 "later": Thing.__dict__["later"]}
    tracer = tracing.Tracer(
        prefix="perffake",
        request_id_of=lambda arg: getattr(arg, "id", "") if isinstance(
            arg, Thing) else "")
    assert tracer.install("f.add", "perffake.inner", "add")
    for name, path in (("f.twice", "Thing.twice"), ("f.label", "Thing.label"),
                       ("f.later", "Thing.later")):
        assert tracer.install(name, "perffake.inner", path)
    assert not tracer.install("f.gone", "perffake.inner", "missing")
    assert not tracer.install("f.nomod", "perffake.nosuch", "add")
    assert tracer.missing == ["f.gone", "f.nomod"]
    assert modules["perffake.user"].add is not add
    assert modules["perffake.inner"].add is modules["perffake.user"].add

    tracer.recording = True
    thing = Thing("r7")
    assert modules["perffake.user"].add(2, 3) == 5
    assert thing.twice(21) == 42
    assert thing.label == "thing-r7"
    assert asyncio.run(thing.later(1)) == 2
    with pytest.raises(_Boom, match="no x"):
        modules["perffake.user"].add(None, 1)
    with pytest.raises(_Boom, match="no value"):
        asyncio.run(thing.later(None))
    tracer.recording = False
    assert modules["perffake.inner"].add(1, 1) == 2

    names = [span[1] for span in tracer.spans]
    assert sorted(names) == sorted(["f.add", "f.twice", "f.label", "f.later",
                                    "f.add", "f.later"])
    assert {span[6] for span in tracer.spans if span[1] != "f.add"} == {"r7"}
    assert all(span[4] >= span[3] for span in tracer.spans)

    tracer.restore()
    assert modules["perffake.inner"].add is add
    assert modules["perffake.user"].add is add
    for attr, original in originals.items():
        assert Thing.__dict__[attr] is original


def test_self_time_subtracts_children():
    spans = [
        (1, "child", 7, 1.0, 1.5, 0, "", False),
        (2, "child", 7, 2.0, 2.25, 0, "", False),
        (0, "parent", 7, 0.0, 3.0, -1, "", False),
    ]
    own = tracing.self_times(spans)
    assert own["parent"] == [3.0 - 0.75]
    assert own["child"] == [0.5, 0.25]


# -- checks -----------------------------------------------------------------------


def test_oracle_accepts_right_and_rejects_corrupted_outputs():
    a, b = (1, 255, 128), (3, 1, 128)
    right = {"sum": (4, 0, 0), "cout": (0, 1, 1)}
    assert workloads.oracle_error("adder", 8, a, b, right) is None
    corrupted = dict(right, sum=(4, 0, 1))
    assert "sum" in workloads.oracle_error("adder", 8, a, b, corrupted)
    assert workloads.oracle_error("cam-match", 8, a, (1, 0, 128),
                                  {"match": (1, 0, 1)}) is None
    assert workloads.oracle_error("cam-match", 8, a, (1, 0, 128),
                                  {"match": (1, 1, 1)}) is not None


def test_billing_check_rejects_a_mismatch():
    from repro import api

    request = api.request(kernel="adder", width=16, backend="functional",
                          operands={"a": [5, 60000], "b": [7, 6000]}, id="x")
    with api.connect(workers=1) as client:
        served = client.submit(request)
    assert workloads.check_served(api, [request], [served]) == []
    solo = api.run_kernel(kernel="adder", width=16,
                          operands={"a": [5, 60000], "b": [7, 6000]})
    assert workloads.billing_error(served, solo) is None
    for bad in (
        dataclasses.replace(served, energy=served.energy * 1.01),
        dataclasses.replace(served, latency=served.latency * 2),
        dataclasses.replace(served, outputs={"sum": (12, 1), "cout": (0, 1)}),
    ):
        assert workloads.billing_error(bad, solo) is not None
        assert workloads.check_served(api, [request], [bad])


def test_a_failed_check_makes_the_run_exit_nonzero(monkeypatch, tmp_path,
                                                   capsys):
    def fake_child(script, args, deadline):
        if "--mode" in args and args[args.index("--mode") + 1] == "setup":
            return {"setup_s": 0.5}
        return {"setup_s": 0.5, "p50_ms": 1.0, "p90_ms": 2.0,
                "throughput_ops": 10.0, "peak_rss_mb": 50.0, "attempted": 9,
                "failed": 0, "correct": False,
                "checks": ["request r3: output 'sum' differs from the oracle"],
                "workload": args[1], "seed": 1}

    monkeypatch.setattr(run, "child", fake_child)
    code = run.main(["--workload", "serve_seq_small", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out.splitlines()[-1])["correct"] is False
    assert "CHECK FAILED" in out


def test_table2_matches_the_golden():
    from repro import api

    assert workloads.check_table2(api) == []


# -- compare.py -------------------------------------------------------------------


@pytest.mark.parametrize("a, b, better, expected", [
    ([10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9],
     [8.0, 8.1, 7.9, 8.05, 7.95, 8.02, 7.98, 8.0, 8.1, 7.9], "lower",
     "improved"),
    ([10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9],
     [12.0, 12.1, 11.9, 12.05, 11.95, 12.02, 11.98, 12.0, 12.1, 11.9],
     "lower", "regressed"),
    ([100.0, 100.5, 99.5, 100.2, 99.8], [80.0, 80.5, 79.5, 80.2, 79.8],
     "higher", "regressed"),
    ([10.0, 14.0, 7.0, 12.0, 8.0, 13.0, 9.0, 11.0, 6.0, 15.0],
     [10.5, 13.0, 8.0, 12.5, 7.5, 14.0, 9.5, 10.0, 6.5, 14.5], "lower",
     "unresolved"),
    ([10.0, 10.1, 9.9, 10.05, 9.95], [10.02, 9.97, 10.06, 9.99, 10.0],
     "lower", "unchanged"),
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.1)[0] == expected


def test_compare_reads_run_directories(tmp_path):
    for side, scale in (("A", 1.0), ("B", 0.5)):
        for seed in range(1, 11):
            common.write_json(str(tmp_path / side / f"w{seed}.json"), {
                "workload": "crossbar_rw", "seed": seed, "trace": False,
                "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"p50_ms": scale * (10 + 0.01 * seed)}})
    rows = compare.compare(str(tmp_path / "A"), str(tmp_path / "B"), BENCH)
    by_metric = {(r[0], r[1]): r for r in rows}
    assert by_metric[("crossbar_rw", "p50_ms")][5] == "improved"
    assert by_metric[("crossbar_rw", "p50_ms")][4] == "100% of 10"
    assert by_metric[("crossbar_rw", "setup_s")][5] == "missing"


# -- BENCHMARK.json ---------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_benchmark_declaration_is_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perf"]
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert len(BENCH["end_to_end"]) <= 16
    assert len(BENCH["per_layer"]) <= 128
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for metric in BENCH["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in BENCH["end_to_end"])


def test_declared_metrics_are_the_ones_produced():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    produced = set(tracing.layer_metrics([], [], {}, 1, []))
    produced |= {"tail.p90_ms", "tail.p99_ms", "trace.overhead_pct"}
    produced |= set(ladder.metric_names())
    assert {m["name"] for m in BENCH["per_layer"]} == produced
