"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics on untraced passes; ``--trace 1`` runs one untraced and one
traced pass and prints the per-layer metrics. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit status is 0 when the correctness
gate passes, 1 when it fails, and 2 when the checkout has no sources.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import env  # noqa: E402

WORKLOADS = ("fig8-campaign", "service-sweeps", "sampled-pairs")
#: the end-to-end metrics of the result line, as ``BENCHMARK.json`` lists
#: them. ``warm_s`` is measured and printed in the report but not in the
#: result line: a warm pass lasts milliseconds, and a shared VM can run
#: such passes twice as slow for seconds to minutes at a time, so its
#: run-to-run spread there exceeds any bound the benchmark may set.
RESULT_METRICS = ("setup_s", "cold_s", "sim_kips", "request_p50_s",
                  "request_p90_s", "peak_rss_mb")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one end-to-end benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring budget for the cold passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def untraced(module, ws, seed: int, seconds: float, gate) -> Dict[str, dict]:
    metrics = module.measure(ws, seed, seconds, gate)
    metrics["peak_rss_mb"] = env.metric(env.peak_rss_mb(), "MB")
    env.print_table("end-to-end metrics", ["metric", "value", "unit", ""],
                    [[name, f"{m['value']:.6g}", m["unit"],
                      "" if name in RESULT_METRICS else "report only"]
                     for name, m in metrics.items()])
    return {name: metrics[name] for name in RESULT_METRICS}


def traced(module, ws, seed: int, gate) -> Dict[str, dict]:
    from perfbench import obs_cost, spans
    obs_ratio, obs_base = obs_cost.overhead_ratio(seed)
    recorder = spans.Recorder(ws.fresh("spans"))
    walls = module.traced(ws, seed, gate, recorder)
    recorder.flush()
    all_spans = spans.load_spans(recorder.out_dir)
    values, bases = spans.layer_metrics(all_spans, walls["busy_wall_s"])
    values["obs.overhead_ratio"] = obs_ratio
    bases["obs.overhead_ratio"] = obs_base
    values["trace.overhead_ratio"] = (walls["traced_cold_s"]
                                      / walls["untraced_cold_s"])
    bases["trace.overhead_ratio"] = (
        f"{walls['traced_cold_s']:.4f} s traced / "
        f"{walls['untraced_cold_s']:.4f} s untraced cold pass")
    spans.report(all_spans, values, bases)
    return {name: env.metric(values[name], unit)
            for name, unit, _better in spans.PER_LAYER}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    # a terminated run still stops its daemon and workers and removes
    # its workspace: SystemExit unwinds through every ``finally``
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        env.import_repro()
    except env.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from perfbench import fig8, sampled, service
    from perfbench.digest import Gate, sim_seed
    module = {m.NAME: m for m in (fig8, service, sampled)}[args.workload]
    gate = Gate()
    print(f"{args.workload}: seed {args.seed} (simulation seed "
          f"{sim_seed(args.seed)}), {args.seconds:g} s budget, "
          f"trace {args.trace}")
    print("environment: " + ", ".join(
        f"{k}={v}" for k, v in env.environment_record().items()))
    ws = env.Workspace()
    try:
        if args.trace:
            metrics = traced(module, ws, args.seed, gate)
        else:
            metrics = untraced(module, ws, args.seed, args.seconds, gate)
    finally:
        ws.close()
    gate.report()
    print(env.result_line(gate.correct, gate.attempted, gate.failed,
                          metrics))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
