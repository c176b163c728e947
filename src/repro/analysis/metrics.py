"""Metric helpers shared by examples, tests, and benchmark harnesses."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping

from repro.common.statistics import StatisticsError, geomean
from repro.core.simulator import SimResult

__all__ = ["speedups", "geomean_speedup", "mpki_table",
           "coverage_buckets", "BUCKET_LABELS"]


def speedups(results: Mapping[str, SimResult],
             baselines: Mapping[str, SimResult]) -> Dict[str, float]:
    """Per-workload IPC speedups of ``results`` over ``baselines``."""
    out: Dict[str, float] = {}
    for name, result in results.items():
        out[name] = result.speedup_over(baselines[name])
    return out


def geomean_speedup(results: Mapping[str, SimResult],
                    baselines: Mapping[str, SimResult]) -> float:
    ratios = speedups(results, baselines)
    try:
        return geomean(ratios.values())
    except StatisticsError as exc:
        # name the offending workload instead of a bare position
        bad = sorted(name for name, value in ratios.items() if value <= 0)
        raise StatisticsError(
            f"non-positive speedup for workload(s) {', '.join(bad)}: "
            f"{exc}") from exc


def mpki_table(results: Mapping[str, SimResult]) -> Dict[str, float]:
    return {name: result.branch_mpki for name, result in results.items()}


# Fig. 10 buckets: cycles of re-fill penalty saved per misprediction.
BUCKET_LABELS: List[str] = [
    "not marked", "0 cycles", "1-4", "5-8", "9-12", "13+",
]


def coverage_buckets(results: Iterable[SimResult]) -> Dict[str, float]:
    """Aggregate Fig. 10 histogram across workloads into fractions."""
    counts = [0] * len(BUCKET_LABELS)
    for result in results:
        for saved, count in result.refill_saved.buckets.items():
            if saved < 0:
                counts[0] += count
            elif saved == 0:
                counts[1] += count
            elif saved <= 4:
                counts[2] += count
            elif saved <= 8:
                counts[3] += count
            elif saved <= 12:
                counts[4] += count
            else:
                counts[5] += count
    total = sum(counts)
    if not total:
        return {label: 0.0 for label in BUCKET_LABELS}
    return {label: counts[i] / total
            for i, label in enumerate(BUCKET_LABELS)}
