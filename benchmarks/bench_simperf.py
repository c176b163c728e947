"""Simulator-throughput benchmark guarding the event-driven core loop.

Unlike every other benchmark here, this one measures the *simulator*, not
the simulated machine: simulated kilocycles per wall-clock second on the
dense Fig. 8 configuration (baseline core and the paper's APF design
point), per workload. Runs are timed directly on :class:`OoOCore` — the
harness cache would turn a second invocation into a file read.

Results go to ``BENCH_simperf.json`` at the repo root, keyed by
``REPRO_BENCH_SCALE``. Each scale section keeps up to three row sets:

* ``before`` — the pre-optimization loop, measured once when the
  event-driven loop landed; never rewritten by this benchmark.
* ``after``  — the committed reference for the current code, rewritten on
  every run (so a CI artifact always carries the fresh numbers).
* ``geomean_speedup`` — geomean of after/before across rows, when both
  exist.

Throughput is machine-dependent; the committed numbers document the
speedup on one machine and give CI a coarse regression tripwire
(:data:`REGRESSION_TOLERANCE`), not a portable absolute.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Dict, Optional

from bench_common import register_bench, save_result
from repro.analysis.harness import bench_windows
from repro.common.config import small_core_config
from repro.core.ooo_core import OoOCore
from repro.obs import ObsSink
from repro.workloads.profiles import ALL_NAMES, build_workload, workload_trace

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_simperf.json"
SEED = 1234
#: CI fails when the measured geomean drops more than this fraction below
#: the committed ``after`` geomean for the same scale.
REGRESSION_TOLERANCE = 0.30

Rows = Dict[str, Dict[str, float]]

#: Timed repetitions per (workload, config, obs) cell. Single-shot wall
#: timings on a shared machine swing far more than any code change this
#: benchmark is meant to detect; the median of three absorbs a one-off
#: stall without the cost of a longer campaign.
REPEATS = 3


def _scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "small")


def _repeats() -> int:
    return max(1, int(os.environ.get("REPRO_BENCH_REPEATS", REPEATS)))


def _median(values) -> float:
    values = sorted(values)
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])


def _timed_run(config, program, trace, total, warmup, obs: bool):
    """One fresh core, one timed run. Returns ``(cycles, wall_seconds)``."""
    core = OoOCore(config, program, trace, seed=SEED)
    if obs:
        core.attach_obs(ObsSink())
    t0 = time.perf_counter()
    core.run(total, warmup=warmup)
    return core.now, time.perf_counter() - t0


def measure() -> Rows:
    """Time warmup+measure runs per (workload, config) pair.

    Each pair is timed :data:`REPEATS` times (override with
    ``REPRO_BENCH_REPEATS``) and the *median* wall time is reported —
    single-shot timings proved noisy enough to swamp real changes. Plain
    and obs-attached runs are interleaved within a cell so slow phases
    of the host machine hit both sides alike. The obs run turns the
    "obs off costs one ``is not None`` check per phase" claim into a
    measured overhead ratio (``obs_overhead``; 1.00 = free) instead of
    an asserted one."""
    warmup, window = bench_windows()
    total = warmup + window
    repeats = _repeats()
    rows: Rows = {}
    for workload in ALL_NAMES:
        program = build_workload(workload)
        trace = workload_trace(workload, total)
        for label, config in (("base", small_core_config()),
                              ("apf", small_core_config().with_apf())):
            walls, obs_walls = [], []
            cycles = None
            for _ in range(repeats):
                plain_cycles, wall = _timed_run(
                    config, program, trace, total, warmup, obs=False)
                obs_cycles, obs_wall = _timed_run(
                    config, program, trace, total, warmup, obs=True)
                assert obs_cycles == plain_cycles  # obs must not change timing
                assert cycles is None or cycles == plain_cycles
                cycles = plain_cycles
                walls.append(wall)
                obs_walls.append(obs_wall)
            wall = _median(walls)
            obs_wall = _median(obs_walls)
            rows[f"{workload}/{label}"] = {
                "cycles": cycles,
                "repeats": repeats,
                "wall_s": round(wall, 4),
                "kcycles_per_s": round(cycles / 1000.0 / wall, 3),
                "kcycles_per_s_obs": round(cycles / 1000.0 / obs_wall, 3),
                "obs_overhead": round(obs_wall / wall, 3),
            }
    return rows


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _kcps(row) -> Optional[float]:
    """``kcycles_per_s`` of one row, or None for a malformed/foreign row.

    BENCH_simperf.json is hand-merged across machines and schema
    generations; a consumer must never crash on a section that predates a
    field (or on a truncated row) — it just excludes it."""
    if not isinstance(row, dict):
        return None
    value = row.get("kcycles_per_s")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return value if value > 0 else None


def load_payload() -> dict:
    if RESULT_PATH.exists():
        payload = json.loads(RESULT_PATH.read_text())
        if not isinstance(payload, dict):
            payload = {}
        # tolerate files written before the scales split (or pruned by
        # hand): missing sections mean "no committed reference yet"
        if not isinstance(payload.get("scales"), dict):
            payload["scales"] = {}
        payload.setdefault("seed", SEED)
        return payload
    return {
        "description": "Simulator throughput (simulated kcycles per "
                       "wall-clock second) on the dense Fig. 8 "
                       "configuration; machine-dependent.",
        "seed": SEED,
        "scales": {},
    }


def committed_geomean(scale: str) -> Optional[float]:
    """Geomean kcycles/s of the committed ``after`` rows, if any."""
    section = load_payload()["scales"].get(scale)
    if not isinstance(section, dict):
        return None
    after = section.get("after")
    if not isinstance(after, dict):
        return None
    values = [v for v in map(_kcps, after.values()) if v is not None]
    return geomean(values) if values else None


def update_payload(rows: Rows) -> dict:
    """Fold fresh rows into BENCH_simperf.json as the current scale's
    ``after`` set, preserving ``before`` and other scales."""
    payload = load_payload()
    section = payload["scales"].setdefault(_scale(), {})
    if not isinstance(section, dict):
        section = payload["scales"][_scale()] = {}
    section["after"] = rows
    before = section.get("before")
    if isinstance(before, dict):
        speedups = [rows[k]["kcycles_per_s"] / _kcps(before[k])
                    for k in rows
                    if k in before and _kcps(before[k]) is not None]
        if speedups:
            section["geomean_speedup"] = round(geomean(speedups), 3)
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                           + "\n")
    return payload


def render(rows: Rows) -> str:
    section = load_payload()["scales"].get(_scale(), {})
    if not isinstance(section, dict):
        section = {}
    before = section.get("before")
    if not isinstance(before, dict):
        before = {}
    lines = [f"simperf: simulated kcycles/sec "
             f"(scale={_scale()}, seed={SEED})",
             f"{'run':<24}{'kc/s':>10}{'obs-on':>10}{'obs-ovh':>9}"
             f"{'before':>10}{'speedup':>9}"]
    for key in sorted(rows):
        row = rows[key]
        kcps = row["kcycles_per_s"]
        obs = row.get("kcycles_per_s_obs")
        ovh = row.get("obs_overhead")
        obs_s = f"{obs:>10.1f}" if obs else f"{'-':>10}"
        ovh_s = f"{ovh:>8.2f}x" if ovh else f"{'-':>9}"
        ref = _kcps(before.get(key))
        if ref is not None:
            lines.append(f"{key:<24}{kcps:>10.1f}{obs_s}{ovh_s}"
                         f"{ref:>10.1f}{kcps / ref:>8.2f}x")
        else:
            lines.append(f"{key:<24}{kcps:>10.1f}{obs_s}{ovh_s}"
                         f"{'-':>10}{'-':>9}")
    lines.append(f"geomean: {geomean(r['kcycles_per_s'] for r in rows.values()):.1f} kc/s")
    overheads = [r["obs_overhead"] for r in rows.values()
                 if r.get("obs_overhead")]
    if overheads:
        lines.append(f"geomean obs-attached overhead: "
                     f"{geomean(overheads):.3f}x wall time")
    if isinstance(section.get("geomean_speedup"), (int, float)):
        lines.append(f"geomean speedup vs before: "
                     f"{section['geomean_speedup']:.3f}x")
    return "\n".join(lines)


@register_bench("simperf")
def run() -> str:
    """Simulator throughput in simulated kcycles/sec per workload."""
    rows = measure()
    update_payload(rows)
    text = render(rows)
    save_result("simperf", text)
    return text


def main() -> int:
    """Direct entry point: ``python benchmarks/bench_simperf.py`` runs
    the registered ``simperf`` bench."""
    run()
    return 0


def test_simperf_no_regression():
    """CI perf smoke: fresh geomean must stay within REGRESSION_TOLERANCE
    of the committed baseline for this scale (when one exists)."""
    baseline = committed_geomean(_scale())
    rows = measure()
    update_payload(rows)
    save_result("simperf", render(rows))
    fresh = geomean(r["kcycles_per_s"] for r in rows.values())
    assert fresh > 0
    if baseline is not None:
        floor = (1.0 - REGRESSION_TOLERANCE) * baseline
        assert fresh >= floor, (
            f"simulator throughput regressed: geomean {fresh:.1f} kc/s is "
            f">{REGRESSION_TOLERANCE:.0%} below the committed baseline "
            f"{baseline:.1f} kc/s (floor {floor:.1f})")


if __name__ == "__main__":
    raise SystemExit(main())
