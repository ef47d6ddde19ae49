"""Command-line entry point: ``python -m repro <command>``.

Gives downstream users the headline reproductions without writing any
code:

* ``table2`` — the reproduced Table 2 next to the paper's values;
* ``machines`` — per-machine time/energy/area evaluations;
* ``fig1`` — the architecture-class ordering;
* ``fig4`` — CRS thresholds and the I-V sweep summary;
* ``fig5`` — both IMP implementations' truth tables;
* ``scaling`` — the data-volume scaling study;
* ``kernels`` — the engine's built-in compiled kernels and their costs;
* ``obs`` — exercise the observability layer and export telemetry;
* ``sweep`` — design-space exploration over TechSpec parameters;
* ``plan`` — the CIM-vs-CPU offload plan for a workload trace;
* ``serve`` — the async batched JSONL serving loop (stdin -> stdout),
  optionally exposing live telemetry via ``--metrics-port``;
* ``top`` — a console dashboard polling a running serve's endpoint.

Every subcommand shares one argparse parent parser, so the surface is
uniform: ``--spec-override path=value`` (repeatable; derives the
active :class:`~repro.spec.TechSpec` for the command), ``--json``
(machine-readable output on stdout), ``--profile`` (print the span
tree and metric summary after the command), and ``-q``/``-v``
(stdlib logging levels via :mod:`repro.obs.logsetup`).  Handlers
return the process exit code; ``main`` normalises it (``None`` -> 0)
and turns uncaught :class:`~repro.errors.ReproError` into exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from .analysis import format_table, render_machine_reports, render_table2
from .errors import PlannerError, ReproError
from .obs import configure_logging, get_registry, get_tracer
from .obs.export import console_summary
from .spec import TABLE1, TechSpec
from .units import si_format


def _coerce_value(text: str) -> Any:
    """CLI value -> int/float/str (ints only when spelled as integers)."""
    try:
        number = float(text)
    except ValueError:
        return text
    if number.is_integer() and ("e" not in text.lower() and "." not in text):
        return int(number)
    return number


def _parse_override(raw: str) -> Tuple[str, Any]:
    """``path=value`` -> ``(path, value)`` with numeric coercion."""
    path, sep, value = raw.partition("=")
    if not sep or not path or not value:
        raise ReproError(
            f"bad --spec-override {raw!r}; expected path=value "
            "(e.g. memristor.write_energy=1e-15)"
        )
    return path, _coerce_value(value)


def _spec_from_args(args: argparse.Namespace) -> TechSpec:
    """The command's active spec: TABLE1 plus any --spec-override."""
    overrides = getattr(args, "spec_override", None)
    if not overrides:
        return TABLE1
    return TABLE1.derive(dict(_parse_override(raw) for raw in overrides))


def _emit_json(payload: Any) -> int:
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _table2_payload(result: Any) -> Dict[str, Any]:
    cells = {
        f"{application}.{architecture}": metric_set.as_dict()
        for (application, architecture), metric_set in result.metrics.items()
    }
    improvements = {
        application: {
            "energy_delay": factors.energy_delay,
            "computing_efficiency": factors.computing_efficiency,
        }
        for application, factors in result.improvements.items()
    }
    return {
        "spec_digest": result.spec_digest,
        "cells": cells,
        "improvements": improvements,
        "paper": {f"{app}.{arch}": dict(values)
                  for (app, arch), values in result.paper.items()},
    }


def _cmd_table2(args: argparse.Namespace) -> int:
    from .core import table2

    result = table2(dna_packing=args.packing, spec=_spec_from_args(args))
    if args.json:
        return _emit_json(_table2_payload(result))
    print(render_table2(result))
    return 0


def _cmd_machines(args: argparse.Namespace) -> int:
    from .core import table2

    result = table2(spec=_spec_from_args(args))
    if args.json:
        payload = {
            f"{application}.{architecture}": {
                "machine": report.machine,
                "workload": report.workload,
                "operations": report.operations,
                "parallel_units": report.parallel_units,
                "time_s": report.time,
                "energy_j": report.energy,
                "area_m2": report.area,
            }
            for (application, architecture), report in result.reports.items()
        }
        return _emit_json(payload)
    print(render_machine_reports(result))
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from .core import classify_all

    costs = classify_all(operands_per_op=args.operands,
                         spec=_spec_from_args(args))
    if args.json:
        return _emit_json([
            {
                "class": cost.architecture.value,
                "energy_per_op_j": cost.energy_per_op,
                "latency_per_op_s": cost.latency_per_op,
                "communication_fraction": cost.communication_fraction,
            }
            for cost in costs
        ])
    rows = [
        [cost.architecture.value,
         si_format(cost.energy_per_op, "J"),
         si_format(cost.latency_per_op, "s"),
         f"{100 * cost.communication_fraction:.1f}%"]
        for cost in costs
    ]
    print(format_table(
        ["Class", "E/op", "T/op", "comm share"], rows,
        title=f"Fig 1 at {args.operands} operands/op",
    ))
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from .devices import ComplementaryResistiveSwitch, triangular_sweep

    cell = ComplementaryResistiveSwitch()
    vth = cell.thresholds()
    trace = cell.sweep_iv(triangular_sweep(1.6, 48))
    states = list(dict.fromkeys(state.value for _, _, state in trace))
    peak = max(abs(current) for _, current, _ in trace)
    if args.json:
        return _emit_json({
            "thresholds_v": list(vth),
            "states": states,
            "peak_current_a": peak,
        })
    print(f"CRS thresholds: Vth1={vth[0]:.2f} V, Vth2={vth[1]:.2f} V, "
          f"Vth3={vth[2]:.2f} V, Vth4={vth[3]:.2f} V")
    print(f"I-V sweep: states {' -> '.join(states)}; peak |I| = {peak:.3e} A")
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    import itertools

    from .devices import IdealBipolarMemristor
    from .logic import CRSImplyCell, ImplyGate

    gate = ImplyGate()
    crs = CRSImplyCell()
    rows = []
    for p, q in itertools.product((0, 1), repeat=2):
        device_p = IdealBipolarMemristor(x=float(p))
        device_q = IdealBipolarMemristor(x=float(q))
        rows.append([p, q, gate.apply(device_p, device_q), crs.imply(p, q)])
    if args.json:
        return _emit_json([
            {"p": p, "q": q, "fig5a": a, "fig5b_crs": b}
            for p, q, a, b in rows
        ])
    print(format_table(
        ["p", "q", "Fig 5(a)", "Fig 5(b) CRS"],
        [[str(v) for v in row] for row in rows],
        title="p IMP q, both implementations",
    ))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from .core.scaling import coverage_sweep

    rows_data = coverage_sweep(spec=_spec_from_args(args))
    if args.json:
        return _emit_json(rows_data)
    rows = [
        [str(r["coverage"]),
         si_format(r["conv_time"], "s"),
         si_format(r["cim_time"], "s"),
         f"{r['time_advantage']:.1f}x",
         f"{r['energy_advantage']:.3g}x"]
        for r in rows_data
    ]
    print(format_table(
        ["coverage", "conv T", "CIM T", "time adv", "energy adv"],
        rows, title="DNA data-volume scaling at fixed silicon",
    ))
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    """List the engine's built-in kernels with compiled + analytical costs."""
    from .engine import kernel_catalog

    spec = _spec_from_args(args)
    catalog = kernel_catalog(adder_width=args.width, match_width=args.width)
    if args.json:
        return _emit_json({"spec_digest": spec.digest, "kernels": catalog})
    print(f"active spec: {spec.describe()}")
    rows = []
    for entry in catalog:
        energy = entry.get("analytical_energy_j")
        latency = entry.get("analytical_latency_s")
        rows.append([
            str(entry["name"]),
            str(entry["digest"]),
            str(entry["steps"]),
            str(entry["memristors"]),
            si_format(energy, "J") if energy is not None else "-",
            si_format(latency, "s") if latency is not None else "-",
        ])
    print(format_table(
        ["kernel", "digest", "steps", "memristors", "E (Table 1)", "T (Table 1)"],
        rows,
        title=f"Built-in engine kernels at width {args.width}",
    ))
    return 0


def _metrics_payload() -> Dict[str, Any]:
    """Registry snapshot as plain data (the ``obs --json`` output)."""
    payload: Dict[str, Any] = {}
    for metric in get_registry():
        instances = metric.children() or [metric]
        for instance in instances:
            labels = ",".join(f"{k}={v}" for k, v in instance.labelvalues)
            key = f"{metric.name}{{{labels}}}" if labels else metric.name
            if metric.kind == "histogram":
                payload[key] = {
                    "count": instance.count,
                    "sum": instance.sum,
                    "mean": instance.mean,
                }
            else:
                payload[key] = instance.value
    return payload


def _cmd_obs(args: argparse.Namespace) -> int:
    """Exercise the instrumented stack and print/export its telemetry."""
    from .obs.export import export_prometheus, export_spans_jsonl
    from .sim.machine import FunctionalCIM

    spec = _spec_from_args(args)
    tracer = get_tracer()
    tracer.enable()
    with tracer.span("obs-demo"):
        machine = FunctionalCIM(words=args.words, width=8, lanes=4)
        with tracer.span("store"):
            machine.store_many([(3 * i + 1) % 251 % 256 for i in range(args.words)])
        with tracer.span("add_arrays"):
            machine.add_arrays([1, 2, 3, 4], [5, 6, 7, 8])
        with tracer.span("compare_all"):
            machine.compare_all(4)
        with tracer.span("reduce_add"):
            machine.reduce_add()
    if args.json:
        code = _emit_json({"spec_digest": spec.digest,
                           "metrics": _metrics_payload()})
    else:
        code = 0
        print(f"active spec: {spec.describe()}")
        print(tracer.render())
        print()
        print(console_summary(get_registry()))
    if args.jsonl:
        export_spans_jsonl(tracer, args.jsonl)
        print(f"spans written to {args.jsonl}", file=sys.stderr)
    if args.prom:
        export_prometheus(get_registry(), args.prom)
        print(f"metrics written to {args.prom}", file=sys.stderr)
    return code


def _parse_sweep_param(raw: str) -> Tuple[str, List[Any]]:
    """``path=v1,v2,...`` -> ``(path, [values])`` with float coercion."""
    path, sep, values = raw.partition("=")
    if not sep or not path or not values:
        raise ReproError(
            f"bad --param {raw!r}; expected path=value,value "
            "(e.g. memristor.write_energy=1e-15,2e-15)"
        )
    return path, [_coerce_value(v) for v in values.split(",")]


def _cmd_board(args: argparse.Namespace) -> int:
    """List registered crossbar boards with digests and the default."""
    from .board import DEFAULT_BOARD_ENV, board_catalog, default_board_kind

    spec = _spec_from_args(args)
    catalog = board_catalog(spec, rows=args.rows, cols=args.cols)
    if args.json:
        return _emit_json({
            "default": default_board_kind(),
            "env": DEFAULT_BOARD_ENV,
            "geometry": [args.rows, args.cols],
            "boards": catalog,
        })
    rows = [
        [
            entry["kind"] + (" *" if entry["default"] else ""),
            entry["digest"][:12],
            entry["summary"],
        ]
        for entry in catalog
    ]
    print(format_table(
        ["Kind", "Digest", "Description"], rows,
        title=(
            f"Boards at {args.rows}x{args.cols} on spec "
            f"{spec.short_digest} (* = default; set {DEFAULT_BOARD_ENV})"
        ),
    ))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run a TechSpec parameter sweep and write JSONL/CSV artifacts."""
    from .analysis.dse import paper_grid, run_sweep, write_csv, write_jsonl

    base = _spec_from_args(args)
    if args.param:
        grid = dict(_parse_sweep_param(p) for p in args.param)
    else:
        grid = paper_grid()
    if not args.json:
        print(f"base spec: {base.describe()}")
    result = run_sweep(
        grid,
        base=base,
        workers=args.workers,
        serial=args.serial,
        keep_ledgers=not args.no_ledgers,
    )
    mode = (f"parallel x{result.workers}" if result.parallel else "serial")

    improvement_keys = [
        key for key in ("dna.improvement.energy_delay",
                        "math.improvement.energy_delay",
                        "dna.improvement.computing_efficiency",
                        "math.improvement.computing_efficiency")
        if key in result.points[0].metrics
    ]
    if args.json:
        summary = {
            "base_spec_digest": base.digest,
            "points": len(result),
            "evaluated": result.evaluated,
            "cache_hits": result.cache_hits,
            "mode": mode,
            "metrics": {
                key: {
                    "best": result.best(key, maximize=True).metrics[key],
                    "worst": result.best(key, maximize=False).metrics[key],
                    "best_overrides": dict(
                        result.best(key, maximize=True).overrides),
                }
                for key in improvement_keys
            },
        }
        code = _emit_json(summary)
    else:
        code = 0
        print(f"swept {len(result)} points ({result.evaluated} evaluated, "
              f"{result.cache_hits} cache hits, {mode})")
        headers = ["metric", "best", "worst", "at (best overrides)"]
        rows = []
        for key in improvement_keys:
            best = result.best(key, maximize=True)
            worst = result.best(key, maximize=False)
            rows.append([
                key,
                f"{best.metrics[key]:.4g}x",
                f"{worst.metrics[key]:.4g}x",
                ", ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in best.overrides.items()) or "(base)",
            ])
        print(format_table(headers, rows,
                           title="CIM improvement across the grid"))

    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as stream:
            lines = write_jsonl(result, stream)
        print(f"{lines} JSONL lines written to {args.jsonl}", file=sys.stderr)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as stream:
            lines = write_csv(result, stream)
        print(f"{lines} CSV rows written to {args.csv}", file=sys.stderr)
    return code


def _cmd_plan(args: argparse.Namespace) -> int:
    """Price a workload trace under CIM/CPU models; print the plan."""
    from .analysis.planner import paper_trace, plan, read_trace

    spec = _spec_from_args(args)
    if args.trace:
        try:
            with open(args.trace, "r", encoding="utf-8") as stream:
                trace = read_trace(stream)
        except OSError as exc:
            raise PlannerError(f"cannot read trace {args.trace}: {exc}")
    else:
        trace = paper_trace(spec)
    result = plan(trace, spec=spec)
    if args.json:
        return _emit_json(result.as_dict())
    print(f"active spec: {spec.describe()}")
    rows = [
        [
            choice.kernel,
            str(choice.width),
            f"{choice.words:,}",
            si_format(choice.cim_energy_delay, "Js"),
            si_format(choice.cpu_energy_delay, "Js"),
            choice.placement.upper(),
            choice.backend,
            ("-" if choice.crossover_words is None
             else f"{choice.crossover_words:,}"),
        ]
        for choice in result.choices
    ]
    print(format_table(
        ["Kernel", "Width", "Words", "CIM E*D", "CPU E*D",
         "Placement", "Auto backend", "Crossover (words)"],
        rows,
        title=(
            "Offload plan (placement = lower predicted energy-delay; "
            "crossover = smallest batch where CIM wins)"
        ),
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the async batched JSONL serving loop until input EOF."""
    from .serve.frontend import serve_jsonl
    from .serve.server import ignored_option

    ignored_option("repro serve --workers", args.workers)
    in_stream = sys.stdin
    if args.input:
        in_stream = open(args.input, "r", encoding="utf-8")
    try:
        stats = serve_jsonl(
            in_stream,
            sys.stdout,
            metrics_port=args.metrics_port,
            shards=args.shards,
            replicas=args.replicas,
            quota=args.quota,
            max_batch_size=args.max_batch_size,
            queue_limit=args.queue_limit,
            retries=args.retries,
            telemetry=not args.no_telemetry,
            spec=_spec_from_args(args),
        )
    finally:
        if args.input:
            in_stream.close()
    print(stats.summary(), file=sys.stderr)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Poll a serve telemetry endpoint and repaint a console dashboard."""
    import time as _time

    from .obs.httpexport import fetch_json, render_top

    base = args.url.rstrip("/")
    if "://" not in base:
        base = f"http://{base}"
    remaining = args.iterations
    while True:
        snapshot = fetch_json(f"{base}/metrics?format=json")
        health = fetch_json(f"{base}/healthz")
        flight = fetch_json(f"{base}/flight?last={args.flights}")
        if args.json:
            print(json.dumps({"health": health, "metrics": snapshot,
                              "flight": flight["records"]}, sort_keys=True))
        else:
            print(render_top(snapshot, health, flight["records"]))
        if remaining is not None:
            remaining -= 1
            if remaining <= 0:
                return 0
        _time.sleep(args.interval)
        if not args.json:
            print()


def build_parser() -> argparse.ArgumentParser:
    # The one shared parent parser: every subcommand gets the same
    # --spec-override / --json / --profile / -q / -v surface.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec-override", action="append",
                        metavar="PATH=VALUE", default=[],
                        help="derive the active TechSpec with one dotted "
                             "override (repeatable; e.g. "
                             "memristor.write_energy=2e-15)")
    common.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON on stdout")
    common.add_argument("--profile", action="store_true",
                        help="print the span tree and metric summary "
                             "after the command")
    common.add_argument("-q", "--quiet", action="store_true",
                        help="only log errors")
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log verbosity (-v info, -vv debug)")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the DATE 2015 memristor CIM paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table2 = sub.add_parser("table2", help="reproduce Table 2",
                            parents=[common])
    table2.add_argument("--packing", choices=("paper", "max"),
                        default="paper",
                        help="CIM DNA comparator packing (default: paper)")
    table2.set_defaults(handler=_cmd_table2)

    machines = sub.add_parser("machines", help="per-machine evaluations",
                              parents=[common])
    machines.set_defaults(handler=_cmd_machines)

    fig1 = sub.add_parser("fig1", help="architecture classification",
                          parents=[common])
    fig1.add_argument("--operands", type=float, default=3.0,
                      help="operand transfers per operation (default 3)")
    fig1.set_defaults(handler=_cmd_fig1)

    fig4 = sub.add_parser("fig4", help="CRS cell characterisation",
                          parents=[common])
    fig4.set_defaults(handler=_cmd_fig4)

    fig5 = sub.add_parser("fig5", help="IMP truth tables", parents=[common])
    fig5.set_defaults(handler=_cmd_fig5)

    scaling = sub.add_parser("scaling", help="data-volume scaling study",
                             parents=[common])
    scaling.set_defaults(handler=_cmd_scaling)

    kernels = sub.add_parser(
        "kernels", parents=[common],
        help="list the engine's built-in compiled kernels")
    kernels.add_argument("--width", type=int, default=32,
                         help="word width for the sized kernels (default 32)")
    kernels.set_defaults(handler=_cmd_kernels)

    obs = sub.add_parser(
        "obs", parents=[common],
        help="run an instrumented demo and export telemetry")
    obs.add_argument("--words", type=int, default=8,
                     help="functional-CIM words for the demo (default 8)")
    obs.add_argument("--jsonl", metavar="PATH",
                     help="write the span tree as JSON lines")
    obs.add_argument("--prom", metavar="PATH",
                     help="write metrics in Prometheus text format")
    obs.set_defaults(handler=_cmd_obs)

    board = sub.add_parser(
        "board", parents=[common],
        help="list the registered crossbar boards and the active default")
    board.add_argument("--rows", type=int, default=32,
                       help="reference geometry rows for digests (default 32)")
    board.add_argument("--cols", type=int, default=32,
                       help="reference geometry cols for digests (default 32)")
    board.set_defaults(handler=_cmd_board)

    sweep = sub.add_parser(
        "sweep", parents=[common],
        help="design-space exploration over TechSpec parameters")
    sweep.add_argument(
        "--param", action="append", metavar="PATH=V1,V2",
        help="sweep one dotted spec path over comma-separated values "
             "(repeatable; default: the built-in 128-point paper grid). "
             "Paths under board.* sweep the board layer instead, e.g. "
             "board.variability=0,0.05,0.1")
    sweep.add_argument("--jsonl", metavar="PATH",
                       help="write every point (with cost-ledger "
                            "provenance) as JSON lines")
    sweep.add_argument("--csv", metavar="PATH",
                       help="write an overrides+metrics CSV")
    sweep.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default: cpu count)")
    sweep.add_argument("--serial", action="store_true",
                       help="evaluate in-process, no pool")
    sweep.add_argument("--no-ledgers", action="store_true",
                       help="drop per-point ledgers (smaller JSONL)")
    sweep.set_defaults(handler=_cmd_sweep)

    plan = sub.add_parser(
        "plan", parents=[common],
        help="CIM-vs-CPU offload plan for a workload trace")
    plan.add_argument(
        "--trace", metavar="PATH",
        help="JSONL workload trace (one {kernel, width, words, "
             "hit_ratio} object per line; default: the built-in "
             "paper workload trace)")
    plan.set_defaults(handler=_cmd_plan)

    serve = sub.add_parser(
        "serve", parents=[common],
        help="serve JSONL kernel/evaluate requests (stdin -> stdout)")
    serve.add_argument("--input", metavar="PATH",
                       help="read requests from PATH instead of stdin")
    serve.add_argument("--shards", type=int, default=1,
                       help="hash-routed server shards; >1 fronts the "
                            "sharded ClusterServer (default 1)")
    serve.add_argument("--replicas", type=int, default=1,
                       help="servers per hash slot, round-robined "
                            "(default 1)")
    serve.add_argument("--quota", type=int, default=None, metavar="N",
                       help="per-tenant in-flight request quota; beyond "
                            "it submissions are shed with "
                            "ServerOverloaded (default: unlimited)")
    serve.add_argument("--max-batch-size", type=int, default=64,
                       help="requests coalesced per batch (default 64)")
    serve.add_argument("--queue-limit", type=int, default=1024,
                       help="bounded queue size; beyond it requests are "
                            "rejected with ServerOverloaded (default 1024)")
    serve.add_argument("--workers", type=int, default=None,
                       help="deprecated and ignored: each server runs "
                            "one engine execution at a time")
    serve.add_argument("--retries", type=int, default=2,
                       help="transient executor failure retries (default 2)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="expose /metrics + /healthz + /flight on "
                            "127.0.0.1:PORT while serving (0 = any free "
                            "port; default: off)")
    serve.add_argument("--no-telemetry", action="store_true",
                       help="disable request-scoped tracing, flight "
                            "records and latency quantiles")
    serve.set_defaults(handler=_cmd_serve)

    top = sub.add_parser(
        "top", parents=[common],
        help="live console view of a serve --metrics-port endpoint")
    top.add_argument("url", metavar="URL",
                     help="telemetry endpoint base, e.g. 127.0.0.1:9090")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between polls (default 2)")
    top.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="stop after N polls (default: run until ^C)")
    top.add_argument("--flights", type=int, default=5,
                     help="recent flight records to show (default 5)")
    top.set_defaults(handler=_cmd_top)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(-1 if getattr(args, "quiet", False)
                      else getattr(args, "verbose", 0))
    profiling = getattr(args, "profile", False)
    if profiling:
        get_tracer().enable()
    try:
        code = args.handler(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`): not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    finally:
        if profiling:
            tracer = get_tracer()
            try:
                print("\n-- span tree " + "-" * 47)
                print(tracer.render())
                print()
                print(console_summary(get_registry()))
            except (BrokenPipeError, ValueError):
                # The reader went away mid-command (e.g. `| head`); the
                # BrokenPipeError handler above may have closed stdout
                # already, which turns further prints into ValueError.
                pass
            finally:
                # Leave the process-wide tracer as we found it so repeated
                # in-process main() calls don't accumulate span trees.
                tracer.disable()
                tracer.reset()
    # Handlers return an exit code; None (bare return) means success.
    return 0 if code is None else int(code)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
