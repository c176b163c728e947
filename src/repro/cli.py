"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run       simulate one workload on one configuration, print metrics
compare   baseline vs APF (or any two configurations) on workloads
sweep     sweep one APF parameter (depth / buffers / scheme) on a workload
cpistack  top-down CPI stack of one run (text bars + --json), or
          --diff A B to flag the leaves that moved between two runs
bench     run paper benchmarks (parallel, cached, with a run manifest)
trace     record a pipeline trace (text timeline, Chrome/Perfetto JSON,
          or gem5-O3PipeView/Konata format)
serve     run the simulation service daemon: HTTP request intake, job-DAG
          scheduling with work stealing, content-addressed result store
submit    submit a run/compare/sweep request to a serve daemon
status    query a serve daemon (overview, or one request's detail)
spans     fetch one request's trace spans from a serve daemon (tree
          view, --json, --perfetto Chrome trace-event export)
list      list workloads and predefined configurations
describe  print the Table III-style configuration summary

run/compare/sweep/bench/trace accept ``--emit-metrics PATH``: every
simulation result (and bench job, sampling interval, and trace occupancy
summary) is appended to PATH as schema-validated JSONL metric records
(see :mod:`repro.obs.metrics`).

run/compare/sweep share the on-disk result cache with the benches: their
default warmup/measure windows come from ``harness.bench_windows()`` (the
``REPRO_BENCH_SCALE`` scale), so ``python -m repro run`` hits the same
cache entries as ``python -m repro bench``.

Examples
--------
    python -m repro run --workload leela --apf
    python -m repro compare --workloads leela,tc,mcf
    python -m repro sweep --workload deepsjeng --parameter depth
    python -m repro bench fig02_mpki table4_bank_conflicts --jobs 4
    python -m repro trace leela --instructions 3000 --format chrome
    python -m repro describe --apf --scale paper
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.analysis import harness
from repro.analysis import runner as runner_mod
from repro.analysis.metrics import geomean_speedup, speedups
from repro.analysis.plots import stacked_bar_chart
from repro.analysis.report import render_table, summarize_histogram
from repro.obs.accounting import (
    CPI_SCHEMA_VERSION,
    CpiStackError,
    apf_coverage,
    load_stacks,
    render_coverage,
    render_diff,
    render_leaf_table,
    stack_from_result,
)
from repro.obs import (
    EventRecorder,
    MetricStream,
    current_metric_stream,
    render_timeline,
    result_metric_fields,
    using_metric_stream,
    write_chrome_trace,
    write_o3_pipeview,
)
from repro.sampling import parse_sampling
from repro.service.requests import RequestError, config_from_spec
from repro.common.config import (
    AlternatePathMode,
    CoreConfig,
    FetchScheme,
    describe,
    paper_core_config,
    small_core_config,
)
from repro.workloads.profiles import ALL_NAMES, GAP_NAMES, SPEC_NAMES

__all__ = ["main", "build_parser", "config_from_args"]


def _at_least(minimum: int) -> Callable[[str], int]:
    """argparse ``type=``: an int no smaller than ``minimum``."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return convert


def _positive_float(text: str) -> float:
    """argparse ``type=``: a float greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _sampling_spec(text: str) -> str:
    """argparse ``type=``: a valid sampling spec, kept as text so
    ``submit`` forwards it to the daemon unchanged."""
    try:
        parse_sampling(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad sampling spec {text!r}: {exc}") from None
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Alternate Path Fetch (ISCA 2024) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--warmup", type=_at_least(0), default=None,
                       help="warm-up instructions (default: the bench "
                            "window for $REPRO_BENCH_SCALE)")
        p.add_argument("--measure", type=_at_least(1), default=None,
                       help="measured instructions (default: the bench "
                            "window for $REPRO_BENCH_SCALE)")
        p.add_argument("--seed", type=int, default=1234)
        p.add_argument("--sampling", type=_sampling_spec, default=None,
                       metavar="SPEC",
                       help="interval sampling instead of a dense window, "
                            "e.g. intervals=32,period=2000 (keys: "
                            "intervals, period, warmup, measure, "
                            "confidence)")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")
        p.add_argument("--scale", choices=("small", "paper"),
                       default="small",
                       help="structure sizes (paper scale is slow)")
        p.add_argument("--predictor",
                       choices=("tage", "perceptron", "gshare"),
                       default="tage")
        add_metrics(p)

    def add_metrics(p):
        p.add_argument("--emit-metrics", default=None, metavar="PATH",
                       help="append schema-validated JSONL metric records "
                            "(results, bench jobs, sampling intervals, "
                            "occupancy summaries) to PATH")

    def add_apf(p):
        p.add_argument("--apf", action="store_true",
                       help="enable Alternate Path Fetch")
        p.add_argument("--dpip", action="store_true",
                       help="use the DPIP variant instead of APF")
        p.add_argument("--depth", type=int, default=13,
                       help="alternate pipeline depth (default 13)")
        p.add_argument("--buffers", type=int, default=4,
                       help="alternate path buffers (default 4)")
        p.add_argument("--scheme",
                       choices=("banked", "timeshare", "dualport"),
                       default="banked")
        p.add_argument("--tage-banks", type=int, default=4,
                       choices=(1, 2, 4, 8))
        p.add_argument("--no-confidence", action="store_true",
                       help="disable the TAGE-confidence priority")

    def add_profile(p):
        p.add_argument("--profile", nargs="?", const="profile.pstats",
                       default=None, metavar="PATH",
                       help="profile the command under cProfile; dumps "
                            "pstats to PATH (default profile.pstats) and "
                            "prints the top 20 functions by cumulative "
                            "time (combine with --no-cache so simulations "
                            "actually run)")

    run_p = sub.add_parser("run", help="simulate one workload")
    run_p.add_argument("--workload", default="leela", choices=ALL_NAMES)
    add_common(run_p)
    add_apf(run_p)
    add_profile(run_p)

    cmp_p = sub.add_parser("compare", help="baseline vs APF on workloads")
    cmp_p.add_argument("--workloads", default="leela,deepsjeng,tc",
                       help="comma-separated list, or 'all'/'spec'/'gap'")
    add_common(cmp_p)
    add_apf(cmp_p)

    sweep_p = sub.add_parser("sweep", help="sweep one APF parameter")
    sweep_p.add_argument("--workload", default="deepsjeng",
                         choices=ALL_NAMES)
    sweep_p.add_argument("--parameter", required=True,
                         choices=("depth", "buffers", "scheme"))
    add_common(sweep_p)

    cpi_p = sub.add_parser(
        "cpistack",
        help="top-down CPI stack: where every issue slot of every "
             "cycle went")
    cpi_p.add_argument("--workload", default="leela", choices=ALL_NAMES)
    add_common(cpi_p)
    add_apf(cpi_p)
    cpi_p.add_argument("--json", action="store_true", dest="as_json",
                       help="print the stack as a JSON document instead "
                            "of text bars")
    cpi_p.add_argument("--out", default=None, metavar="PATH",
                       help="also write the JSON stack dump to PATH "
                            "(loadable by --diff)")
    cpi_p.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                       help="compare two stack artifacts (cpistack --out "
                            "dumps, run manifests, or metric JSONL "
                            "streams) and flag the leaves that moved; "
                            "no simulation is run")
    cpi_p.add_argument("--threshold", type=float, default=0.5,
                       help="--diff: minimum leaf movement to report, in "
                            "percent of issue slots (default 0.5)")

    bench_p = sub.add_parser(
        "bench", help="run paper benchmarks (parallel, cached)")
    bench_p.add_argument("names", nargs="*",
                         help="benchmark names (default: all; see --list)")
    bench_p.add_argument("--list", action="store_true", dest="list_benches",
                         help="list available benchmarks and exit")
    bench_p.add_argument("--jobs", type=_at_least(1), default=None,
                         help="worker processes (default: "
                              "$REPRO_BENCH_JOBS or 1)")
    bench_p.add_argument("--timeout", type=_positive_float, default=None,
                         help="per-simulation timeout in seconds")
    bench_p.add_argument("--retries", type=_at_least(0), default=1,
                         help="retries per failed/timed-out job (default 1)")
    bench_p.add_argument("--no-cache", action="store_true",
                         help="bypass the on-disk result cache")
    bench_p.add_argument("--manifest", default=None,
                         help="run-manifest JSON path (default: "
                              "benchmarks/results/run_manifest.json)")
    bench_p.add_argument("--sampling", type=_sampling_spec, default=None,
                         metavar="SPEC",
                         help="run every bench simulation in sampled mode "
                              "(e.g. intervals=32,period=2000); results "
                              "are cached separately from dense runs")
    add_metrics(bench_p)
    add_profile(bench_p)

    trace_p = sub.add_parser(
        "trace", help="record a pipeline trace of one workload")
    trace_p.add_argument("workload", choices=ALL_NAMES)
    trace_p.add_argument("--instructions", type=_at_least(1), default=5000,
                         help="instructions to simulate (default 5000)")
    trace_p.add_argument("--format", choices=("text", "chrome", "o3"),
                         default="text",
                         help="text timeline (default), Chrome/Perfetto "
                              "trace-event JSON, or gem5-O3PipeView/Konata")
    trace_p.add_argument("--out", default=None, metavar="PATH",
                         help="output file for chrome/o3 (default "
                              "<workload>.trace.json / "
                              "<workload>.o3pipeview.txt)")
    trace_p.add_argument("--capacity", type=_at_least(1), default=1_000_000,
                         help="event ring-buffer capacity; oldest events "
                              "drop beyond it (default 1000000)")
    trace_p.add_argument("--start", type=_at_least(0), default=0,
                         help="first cycle of the text window (default 0)")
    trace_p.add_argument("--cycles", type=_at_least(1), default=100,
                         help="width of the text window (default 100)")
    trace_p.add_argument("--seed", type=int, default=1234)
    trace_p.add_argument("--scale", choices=("small", "paper"),
                         default="small")
    trace_p.add_argument("--predictor",
                         choices=("tage", "perceptron", "gshare"),
                         default="tage")
    add_apf(trace_p)
    add_metrics(trace_p)

    serve_p = sub.add_parser(
        "serve",
        help="run the simulation service daemon (HTTP, DAG scheduling, "
             "content-addressed result store)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8023,
                         help="TCP port (0 binds an ephemeral port; "
                              "default 8023)")
    serve_p.add_argument("--jobs", type=_at_least(1), default=None,
                         help="worker processes (default: "
                              "$REPRO_BENCH_JOBS or 1)")
    serve_p.add_argument("--timeout", type=_positive_float, default=None,
                         help="per-simulation timeout in seconds")
    serve_p.add_argument("--retries", type=_at_least(0), default=1,
                         help="retries per failed/timed-out job (default 1)")
    serve_p.add_argument("--no-cache", action="store_true",
                         help="bypass the on-disk result cache (results "
                              "kept in memory only)")
    serve_p.add_argument("--journal", default=None, metavar="PATH",
                         help="request journal location (default: "
                              "service-journal.jsonl under the cache "
                              "root)")
    startup = serve_p.add_mutually_exclusive_group()
    startup.add_argument("--resume", dest="resume", action="store_true",
                         default=True,
                         help="replay a previous process's journal on "
                              "startup: resume in-flight requests, "
                              "re-hydrating completed work from the "
                              "cache (default)")
    startup.add_argument("--fresh", dest="resume", action="store_false",
                         help="archive any existing journal unreplayed "
                              "and start with no requests")
    add_metrics(serve_p)

    submit_p = sub.add_parser(
        "submit", help="submit a request to a repro serve daemon")
    submit_p.add_argument("--url", default="http://127.0.0.1:8023")
    submit_p.add_argument("--request", default=None, metavar="PATH",
                          help="JSON request document to submit verbatim "
                               "('-' reads stdin); overrides the "
                               "flag-built request")
    submit_p.add_argument("--kind", choices=("run", "compare", "sweep"),
                          default="compare",
                          help="request kind when building from flags "
                               "(default compare)")
    submit_p.add_argument("--workloads", default="leela,deepsjeng,tc",
                          help="comma-separated list, or 'all'/'spec'/'gap'")
    submit_p.add_argument("--warmup", type=_at_least(0), default=None)
    submit_p.add_argument("--measure", type=_at_least(1), default=None)
    submit_p.add_argument("--seed", type=int, default=1234)
    submit_p.add_argument("--sampling", type=_sampling_spec, default=None,
                          metavar="SPEC")
    submit_p.add_argument("--scale", choices=("small", "paper"),
                          default="small")
    submit_p.add_argument("--predictor",
                          choices=("tage", "perceptron", "gshare"),
                          default="tage")
    add_apf(submit_p)
    submit_p.add_argument("--wait", action="store_true",
                          help="poll until the request is terminal and "
                               "print its results")
    submit_p.add_argument("--poll", type=float, default=0.5,
                          help="--wait poll interval in seconds")
    submit_p.add_argument("--json", action="store_true", dest="as_json",
                          help="print raw JSON responses")

    status_p = sub.add_parser(
        "status", help="query a repro serve daemon")
    status_p.add_argument("request_id", nargs="?", default=None,
                          help="request id for full detail (default: "
                               "daemon overview)")
    status_p.add_argument("--url", default="http://127.0.0.1:8023")
    status_p.add_argument("--json", action="store_true", dest="as_json",
                          help="print raw JSON responses")

    spans_p = sub.add_parser(
        "spans", help="fetch one request's trace spans from a daemon")
    spans_p.add_argument("request_id",
                         help="request id to trace (live or finished)")
    spans_p.add_argument("--url", default="http://127.0.0.1:8023")
    spans_p.add_argument("--json", action="store_true", dest="as_json",
                         help="print the raw span records as JSON")
    spans_p.add_argument("--perfetto", default=None, metavar="OUT",
                         help="also write the trace as validated Chrome "
                              "trace-event JSON (chrome://tracing, "
                              "Perfetto)")

    sub.add_parser("list", help="list workloads and configurations")

    char_p = sub.add_parser("characterize",
                            help="analyse a workload's dynamic trace")
    char_p.add_argument("--workload", default="leela", choices=ALL_NAMES)
    char_p.add_argument("--instructions", type=_at_least(1), default=30_000)

    desc_p = sub.add_parser("describe", help="print the configuration")
    desc_p.add_argument("--scale", choices=("small", "paper"),
                        default="small")
    desc_p.add_argument("--apf", action="store_true")

    return parser


def _spec_from_args(args, apf: bool) -> dict:
    """The service config spec (see :mod:`repro.service.requests`) the
    flags describe; ``apf`` adds the block built from the APF flags,
    which ``sweep`` does not have."""
    spec: Dict[str, object] = {}
    if args.scale != "small":
        spec["scale"] = args.scale
    if args.predictor != "tage":
        spec["predictor"] = args.predictor
    if apf:
        spec["apf"] = {
            "mode": "dpip" if args.dpip else "apf",
            "depth": args.depth,
            "buffers": args.buffers,
            "scheme": args.scheme,
            "tage_banks": args.tage_banks,
            "confidence": not args.no_confidence,
        }
    return spec


def config_from_args(args, apf: Optional[bool] = None) -> CoreConfig:
    """Build the core config the flags describe, through the service's
    ``config_from_spec`` so both front doors share one set of rules.
    ``apf`` defaults to whether ``--apf`` or ``--dpip`` was given."""
    if apf is None:
        apf = getattr(args, "apf", False) or getattr(args, "dpip", False)
    return config_from_spec(_spec_from_args(args, apf))


def _workload_list(spec: str) -> List[str]:
    if spec == "all":
        return list(ALL_NAMES)
    if spec == "spec":
        return list(SPEC_NAMES)
    if spec == "gap":
        return list(GAP_NAMES)
    names = [n.strip() for n in spec.split(",") if n.strip()]
    unknown = [n for n in names if n not in ALL_NAMES]
    if unknown:
        raise SystemExit(f"unknown workloads: {', '.join(unknown)}")
    return names


def _run_one(workload: str, config: CoreConfig, args):
    """One cached simulation with the CLI's window/seed/cache options."""
    result = harness.run_cached(workload, config,
                                warmup=args.warmup, measure=args.measure,
                                seed=args.seed,
                                use_cache=not args.no_cache,
                                sampling=parse_sampling(args.sampling))
    stream = current_metric_stream()
    if stream is not None:
        stream.emit("result", **result_metric_fields(
            result, harness.config_signature(config)))
    return result


def _cmd_run(args) -> int:
    config = config_from_args(args)
    result = _run_one(args.workload, config, args)
    rows = [
        ("instructions", result.instructions),
        ("cycles", result.cycles),
        ("IPC", f"{result.ipc:.3f}"),
        ("branch MPKI", f"{result.branch_mpki:.2f}"),
        ("cond. mispredicts", result.cond_mispredicts),
    ]
    if result.sampled:
        ci = result.ipc_ci
        rows += [
            ("sampled intervals",
             result.counters.get("sampling_intervals", len(
                 result.interval_ipcs))),
            (f"IPC {int(round(ci.confidence * 100))}% CI",
             f"{ci.low:.3f} .. {ci.high:.3f} (±{ci.half_width:.3f})"),
            ("detailed instructions",
             result.counters.get("sampling_detailed_instructions", 0)),
            ("fast-forwarded instructions",
             result.counters.get("sampling_functional_instructions", 0)),
        ]
    if config.apf.enabled:
        rows += [
            ("APF restores", result.counters.get("apf_restores", 0)),
            ("APF jobs", result.counters.get("apf_jobs_started", 0)),
            ("bank-conflict cycles",
             result.counters.get("apf_bank_conflict_cycles", 0)),
            ("re-fill saved", summarize_histogram(result.refill_saved)),
        ]
    print(render_table(["metric", "value"], rows,
                       title=f"{args.workload} "
                             f"({'APF' if config.apf.enabled else 'baseline'})"))
    return 0


def _cmd_compare(args) -> int:
    names = _workload_list(args.workloads)
    base_cfg = config_from_args(args, apf=False)
    apf_cfg = config_from_args(args, apf=True)
    base = {}
    apf = {}
    for name in names:
        base[name] = _run_one(name, base_cfg, args)
        apf[name] = _run_one(name, apf_cfg, args)
    ratio = speedups(apf, base)
    rows = [(n, f"{base[n].ipc:.3f}", f"{apf[n].ipc:.3f}",
             f"{ratio[n]:.3f}", f"{base[n].branch_mpki:.2f}")
            for n in names]
    if len(names) > 1:
        rows.append(("GEOMEAN", "", "",
                     f"{geomean_speedup(apf, base):.3f}", ""))
    print(render_table(
        ["workload", "base IPC", "APF IPC", "speedup", "MPKI"], rows,
        title="baseline vs alternate-path configuration"))
    apf_label = _config_label(apf_cfg)
    stacks = []
    for name in names:
        stacks.append(stack_from_result(base[name], base_cfg,
                                        "base").check())
        stacks.append(stack_from_result(apf[name], apf_cfg,
                                        apf_label).check())
    print()
    print(_stack_chart(stacks))
    for name in names:
        result = apf[name]
        if result.counters.get("apf_restores", 0):
            stack = stack_from_result(result, apf_cfg, apf_label)
            print()
            print(f"{name}:")
            print("\n".join("  " + line for line in
                            _coverage_lines(stack, result, apf_cfg)))
    return 0


def _cmd_sweep(args) -> int:
    base_cfg = config_from_args(args)
    base = _run_one(args.workload, base_cfg, args)
    points = {
        "depth": [("3", dict(pipeline_depth=3, buffer_capacity_uops=24)),
                  ("7", dict(pipeline_depth=7, buffer_capacity_uops=56)),
                  ("11", dict(pipeline_depth=11, buffer_capacity_uops=88)),
                  ("13", dict(pipeline_depth=13,
                              buffer_capacity_uops=104))],
        "buffers": [(str(n), dict(num_buffers=n)) for n in (0, 1, 2, 4, 8)],
        "scheme": [("timeshare",
                    dict(fetch_scheme=FetchScheme.TIME_SHARED)),
                   ("banked", dict(fetch_scheme=FetchScheme.BANKED)),
                   ("dualport", dict(fetch_scheme=FetchScheme.DUAL_PORT))],
    }[args.parameter]
    rows = []
    stacks = [stack_from_result(base, base_cfg, "base").check()]
    for label, overrides in points:
        cfg = base_cfg.with_apf(**overrides)
        result = _run_one(args.workload, cfg, args)
        rows.append((label, f"{result.ipc:.3f}",
                     f"{result.ipc / base.ipc:.3f}"))
        stacks.append(stack_from_result(
            result, cfg, f"{args.parameter}={label}").check())
    print(render_table([args.parameter, "IPC", "speedup"], rows,
                       title=f"{args.workload}: APF {args.parameter} sweep "
                             f"(baseline IPC {base.ipc:.3f})"))
    print()
    print(_stack_chart(stacks))
    return 0


def _config_label(config: CoreConfig) -> str:
    if not config.apf.enabled:
        return "base"
    return ("dpip" if config.apf.mode is AlternatePathMode.DPIP
            else "apf")


def _stack_chart(stacks) -> str:
    """100%-stacked bars over the nonzero leaves of several stacks."""
    series = {stack.label(): {leaf: frac
                              for leaf, frac in stack.fractions().items()
                              if frac}
              for stack in stacks}
    return stacked_bar_chart(series,
                             title="CPI stack (share of issue slots)")


def _refill_summary(histogram):
    """mean/p50/p90 of the refill-savings histogram, or None if empty."""
    if not histogram.total():
        return None
    return {"mean": histogram.mean(), "p50": histogram.percentile(50),
            "p90": histogram.percentile(90)}


def _coverage_lines(stack, result, config: CoreConfig) -> List[str]:
    coverage = apf_coverage(
        stack,
        refill_saved=result.refill_saved.buckets,
        restores=result.counters.get("apf_restores", 0),
        pipeline_depth=config.apf.pipeline_depth)
    return render_coverage(coverage,
                           refill_summary=_refill_summary(
                               result.refill_saved))


def _cmd_cpistack(args) -> int:
    if args.diff:
        path_a, path_b = args.diff
        try:
            stacks_a = load_stacks(path_a)
            stacks_b = load_stacks(path_b)
        except CpiStackError as exc:
            # old artifacts (pre-CPI-stack schema) and malformed files are
            # user input here, not internal errors: fail with the message,
            # not a traceback
            raise SystemExit(f"cpistack --diff: {exc}") from exc
        threshold = args.threshold / 100.0
        if len(stacks_a) == 1 and len(stacks_b) == 1:
            pairs = [(next(iter(stacks_a.values())),
                      next(iter(stacks_b.values())))]
        else:
            common = [key for key in stacks_a if key in stacks_b]
            if not common:
                raise SystemExit(
                    f"no common workload/config labels between {path_a} "
                    f"({', '.join(stacks_a)}) and {path_b} "
                    f"({', '.join(stacks_b)})")
            pairs = [(stacks_a[key], stacks_b[key]) for key in common]
        for i, (stack_a, stack_b) in enumerate(pairs):
            if i:
                print()
            print("\n".join(render_diff(stack_a, stack_b, threshold)))
        return 0

    config = config_from_args(args)
    result = _run_one(args.workload, config, args)
    stack = stack_from_result(result, config, _config_label(config)).check()
    record = stack.to_record()
    stream = current_metric_stream()
    if stream is not None:
        stream.emit("cpi_stack", **record)
    dump = {"cpi_schema": CPI_SCHEMA_VERSION, "stacks": [record]}
    if args.out:
        out = Path(args.out)
        if out.parent != Path("."):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(dump, indent=2, sort_keys=True) + "\n")
        print(f"stack dump written to {out}", file=sys.stderr)
    if args.as_json:
        print(json.dumps(dump, indent=2, sort_keys=True))
        return 0
    print(_stack_chart([stack]))
    print()
    print("\n".join(render_leaf_table(stack)))
    if config.apf.enabled:
        print()
        print("\n".join(_coverage_lines(stack, result, config)))
    return 0


def _benchmarks_dir() -> Path:
    return Path(__file__).resolve().parents[2] / "benchmarks"


def _load_bench_registry() -> Dict[str, Callable[[], str]]:
    bench_dir = _benchmarks_dir()
    if not (bench_dir / "bench_common.py").exists():
        raise SystemExit(f"benchmarks directory not found at {bench_dir}")
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))
    import bench_common
    return bench_common.load_benchmarks()


def _cmd_bench(args) -> int:
    registry = _load_bench_registry()
    if args.list_benches:
        rows = [(name, fn.__doc__.strip().splitlines()[0]
                 if fn.__doc__ else "")
                for name, fn in sorted(registry.items())]
        print(render_table(["benchmark", "reproduces"], rows,
                           title="available benchmarks"))
        return 0
    names = args.names or sorted(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise SystemExit(f"unknown benchmarks: {', '.join(unknown)} "
                         f"(try: repro bench --list)")

    sampling = parse_sampling(args.sampling)
    manifest = runner_mod.RunManifest(meta={
        "benchmarks": names,
        "jobs": runner_mod.resolve_jobs(args.jobs),
        "timeout_s": args.timeout,
        "retries": args.retries,
        "use_cache": not args.no_cache,
        "scale": harness.bench_windows(),
        "sampling": sampling.cache_tag() if sampling else None,
        "cache_schema_version": harness.CACHE_SCHEMA_VERSION,
    })
    runner = runner_mod.Runner(jobs=args.jobs, timeout=args.timeout,
                               retries=args.retries,
                               use_cache=not args.no_cache,
                               manifest=manifest)
    failed: List[str] = []
    with runner_mod.using_runner(runner), harness.using_sampling(sampling):
        for name in names:
            print(f"== {name} ==", file=sys.stderr)
            try:
                registry[name]()
            except runner_mod.RunnerError as exc:
                failed.append(name)
                print(f"bench {name} FAILED:\n{exc}", file=sys.stderr)
    manifest_path = (Path(args.manifest) if args.manifest
                     else _benchmarks_dir() / "results"
                     / "run_manifest.json")
    manifest.save(manifest_path)
    counts = manifest.counts()
    print(f"\n{len(names) - len(failed)}/{len(names)} benchmarks ok; "
          f"job outcomes {counts}; manifest: {manifest_path}")
    if failed:
        print(f"failed benchmarks: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_trace(args) -> int:
    from repro.core.ooo_core import OoOCore
    from repro.workloads.profiles import load_workload

    config = config_from_args(args)
    program, trace = load_workload(args.workload, args.instructions)
    core = OoOCore(config, program, trace, seed=args.seed)
    recorder = EventRecorder(capacity=args.capacity)
    core.attach_obs(recorder)
    core.run(args.instructions)

    if args.format == "chrome":
        out = Path(args.out or f"{args.workload}.trace.json")
        doc = write_chrome_trace(out, recorder.events)
        print(f"chrome trace: {len(doc['traceEvents'])} trace events "
              f"-> {out}")
    elif args.format == "o3":
        out = Path(args.out or f"{args.workload}.o3pipeview.txt")
        text = write_o3_pipeview(out, recorder.events)
        records = text.count("O3PipeView:fetch:")
        print(f"O3PipeView trace: {records} uop records -> {out}")
    else:
        end = min(core.now, args.start + args.cycles)
        print(render_timeline(recorder.events, args.start,
                              max(end, args.start + 1)))

    occupancy = recorder.occupancy_rows()
    rows = [(name, f"{p50:.0f}", f"{p90:.0f}", f"{mean:.1f}", samples)
            for name, p50, p90, mean, samples in occupancy]
    print(render_table(["subsystem", "p50", "p90", "mean", "samples"],
                       rows, title=f"{args.workload} occupancy "
                                   f"({core.now} cycles, "
                                   f"{core.retired} retired)"))
    stream = current_metric_stream()
    if stream is not None:
        for name, p50, p90, mean, samples in occupancy:
            stream.emit("occupancy", workload=args.workload,
                        subsystem=name, p50=p50, p90=p90, mean=mean,
                        samples=samples)
    if recorder.dropped:
        print(f"note: ring buffer dropped {recorder.dropped} oldest of "
              f"{recorder.emitted} events (raise --capacity to keep all)",
              file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    import time

    from repro.service import JournalError, build_service
    try:
        service = build_service(jobs=args.jobs, timeout=args.timeout,
                                retries=args.retries,
                                use_cache=not args.no_cache,
                                host=args.host, port=args.port,
                                journal_path=args.journal,
                                resume=args.resume)
    except JournalError as exc:
        raise SystemExit(f"serve: {exc}\n(run with --fresh to archive "
                         f"the unreplayable journal and start clean)")
    # bind before announcing so a taken port fails loudly up front
    try:
        service.start()
    except RuntimeError as exc:
        raise SystemExit(f"serve: {exc}")
    if service.recovery is not None:
        rec = service.recovery
        print(f"recovered {rec['requests_resumed']} in-flight request(s) "
              f"from the journal: {rec['leaves_rehydrated']} leaves "
              f"re-hydrated from cache, {rec['leaves_requeued']} "
              f"re-enqueued, {rec['claims_reaped']} stale claim(s) "
              f"reaped", file=sys.stderr)
    print(f"repro service listening on {service.url} "
          f"(workers={service.scheduler.executor.slots}, "
          f"cache={'off' if args.no_cache else 'on'}, "
          f"journal={'on' if args.resume else 'fresh'}); Ctrl-C to stop",
          file=sys.stderr)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return 0


def _request_from_args(args) -> dict:
    base_spec = _spec_from_args(args, apf=False)
    apf_spec = _spec_from_args(args, apf=True)
    workloads = _workload_list(args.workloads)
    doc: Dict[str, object] = {
        "kind": args.kind,
        "warmup": args.warmup,
        "measure": args.measure,
        "seed": args.seed,
        "sampling": args.sampling,
    }
    if args.kind == "run":
        doc["workload"] = workloads[0]
        doc["config"] = apf_spec if (args.apf or args.dpip) else base_spec
    elif args.kind == "compare":
        doc["workloads"] = workloads
        doc["base"] = base_spec
        doc["test"] = apf_spec
    else:   # sweep: baseline plus the APF point built from the flags
        doc["workloads"] = workloads
        doc["configs"] = [{"name": "base", "config": base_spec},
                          {"name": "apf", "config": apf_spec}]
    return doc


def _print_request_detail(detail: dict) -> None:
    counts = detail.get("nodes", {})
    provenance = " [recovered]" if detail.get("recovered") else ""
    print(f"request {detail['request_id']}: {detail['status']}"
          f"{provenance} "
          f"({', '.join(f'{k}={v}' for k, v in sorted(counts.items()))})")
    for label, entry in sorted(detail.get("results", {}).items()):
        payload = entry["payload"]
        if payload.get("synth") == "compare_summary":
            print(f"  {label}: geomean speedup "
                  f"{payload['geomean_speedup']:.3f}")
            for name, ratio in sorted(payload["speedups"].items()):
                print(f"    {name}: {ratio:.3f}")
        elif payload.get("synth") == "config_summary":
            print(f"  {label}: geomean IPC {payload['geomean_ipc']:.3f}")
        elif "ipc" in payload and isinstance(payload["ipc"], float):
            print(f"  {label}: IPC {payload['ipc']:.3f}")
        else:
            print(f"  {label}: {entry['key']}")
    failed = [node for node in detail.get("nodes_detail", [])
              if node["state"] in ("failed", "poisoned")]
    for node in failed:
        print(f"  !! {node['label']} [{node['state']}]"
              + (f": {node['error']}" if node.get("error") else ""),
              file=sys.stderr)


def _cmd_submit(args) -> int:
    from repro.service import ServiceClient, ServiceError
    if args.request:
        text = (sys.stdin.read() if args.request == "-"
                else Path(args.request).read_text())
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"--request document is not JSON: {exc}")
    else:
        doc = _request_from_args(args)
    client = ServiceClient(args.url)
    try:
        accepted = client.submit(doc)
        if args.as_json and not args.wait:
            print(json.dumps(accepted, indent=2, sort_keys=True))
            return 0
        print(f"accepted {accepted['request_id']}: "
              f"{accepted['kind']} with {accepted['jobs']} leaf job(s), "
              f"{accepted['nodes']} node(s)", file=sys.stderr)
        if not args.wait:
            print(accepted["request_id"])
            return 0
        detail = client.wait(accepted["request_id"], poll=args.poll)
    except ServiceError as exc:
        raise SystemExit(f"submit: {exc}")
    if args.as_json:
        print(json.dumps(detail, indent=2, sort_keys=True))
    else:
        _print_request_detail(detail)
    return 0 if detail["status"] == "done" else 1


def _cmd_status(args) -> int:
    from repro.service import ServiceClient, ServiceError
    client = ServiceClient(args.url)
    try:
        if args.request_id:
            detail = client.status(args.request_id)
            if args.as_json:
                print(json.dumps(detail, indent=2, sort_keys=True))
            else:
                _print_request_detail(detail)
            return 0
        overview = client.status()
    except ServiceError as exc:
        raise SystemExit(f"status: {exc}")
    if args.as_json:
        print(json.dumps(overview, indent=2, sort_keys=True))
        return 0
    rows = [(entry["request_id"], entry["kind"],
             entry["status"] + (" [recovered]" if entry.get("recovered")
                                else ""),
             ", ".join(f"{k}={v}"
                       for k, v in sorted(entry["nodes"].items())))
            for entry in overview["requests"]]
    print(render_table(["request", "kind", "status", "nodes"], rows,
                       title=f"service requests ({args.url})"))
    executor = overview["executor"]
    store = overview["store"]
    print(f"executor: {executor['active']} active / "
          f"{executor['pending']} pending on {executor['slots']} slot(s); "
          f"store: {store['hits']} hits, {store['misses']} misses, "
          f"{store['dedups']} in-flight dedups")
    return 0


def _cmd_spans(args) -> int:
    from repro.obs.spans import (render_span_tree, summarize_spans,
                                 write_spans_chrome_trace)
    from repro.service import ServiceClient, ServiceError
    client = ServiceClient(args.url)
    try:
        payload = client.spans(args.request_id)
    except ServiceError as exc:
        raise SystemExit(f"spans: {exc}")
    spans = payload["spans"]
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"trace {args.request_id} "
              f"({len(spans)} span(s), epoch_unix="
              f"{payload['epoch_unix']:.3f})")
        print(render_span_tree(spans))
        summary = summarize_spans(spans)
        rows = [(name, str(entry["count"]),
                 f"{entry['total_us'] / 1000.0:.3f}",
                 f"{entry['max_us'] / 1000.0:.3f}")
                for name, entry in sorted(summary.items())]
        print(render_table(["phase", "count", "total ms", "max ms"],
                           rows, title="phase summary"))
    if args.perfetto:
        write_spans_chrome_trace(args.perfetto, spans,
                                 process_name=f"repro-service "
                                              f"{args.request_id}")
        print(f"wrote Chrome trace-event JSON to {args.perfetto} "
              f"(chrome://tracing, Perfetto)", file=sys.stderr)
    return 0


def _cmd_list(_args) -> int:
    rows = [(n, "SPEC CPU2017int substitute") for n in SPEC_NAMES]
    rows += [(n, "GAP kernel") for n in GAP_NAMES]
    print(render_table(["workload", "kind"], rows, title="workloads"))
    return 0


def _cmd_characterize(args) -> int:
    from repro.analysis.characterize import characterize
    from repro.workloads.profiles import load_workload
    _program, trace = load_workload(args.workload, args.instructions)
    profile = characterize(trace)
    rows = list(profile.summary_rows())
    rows += [(f"branch mix: {kind}", f"{fraction:.4f}")
             for kind, fraction in profile.branch_mix.items()]
    print(render_table(["property", "value"], rows,
                       title=f"{args.workload} characterisation"))
    return 0


def _cmd_describe(args) -> int:
    config = (paper_core_config() if args.scale == "paper"
              else small_core_config())
    if args.apf:
        config = config.with_apf()
    rows = list(describe(config).items())
    print(render_table(["component", "value"], rows,
                       title=f"{args.scale} configuration"))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "cpistack": _cmd_cpistack,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "spans": _cmd_spans,
    "list": _cmd_list,
    "characterize": _cmd_characterize,
    "describe": _cmd_describe,
}


def _with_profile(args, fn: Callable[[], int]) -> int:
    """Run ``fn``, under cProfile when the command carries ``--profile``."""
    if not getattr(args, "profile", None):
        return fn()
    import cProfile
    import pstats
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return fn()
    finally:
        profiler.disable()
        path = Path(args.profile)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(path)
        print(f"\nprofile written to {path}; top 20 by cumulative time:",
              file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(20)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the environment's runner settings are inputs too: refuse a bad one
    # up front, naming the variable, instead of failing mid-command
    try:
        harness.bench_windows()
        runner_mod.resolve_jobs()
        if hasattr(args, "depth"):
            # the APF flags obey the service's spec rules, even unused
            config_from_args(args, apf=True)
    except RequestError as exc:
        parser.error(f"argument --{exc.field}: {exc}")
    except ValueError as exc:
        parser.error(str(exc))

    def dispatch() -> int:
        return _with_profile(args, lambda: _COMMANDS[args.command](args))

    path = getattr(args, "emit_metrics", None)
    if not path:
        return dispatch()
    with MetricStream(path) as stream, using_metric_stream(stream):
        code = dispatch()
    print(f"{stream.emitted} metric records appended to {path}",
          file=sys.stderr)
    return code


if __name__ == "__main__":   # pragma: no cover - exercised via __main__
    sys.exit(main())
