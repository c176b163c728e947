"""Analysis: metrics, reporting, harness, runner, area/energy, plots."""

from repro.analysis.area import OverheadModel, StructureBudget
from repro.analysis.characterize import TraceProfile, characterize
from repro.analysis.plots import bar_chart, grouped_bar_chart, sparkline
from repro.analysis.harness import (
    CACHE_SCHEMA_VERSION,
    bench_windows,
    cache_path,
    config_signature,
    run_cached,
    sweep,
    sweep_configs,
)
from repro.analysis.runner import (
    Job,
    RunManifest,
    Runner,
    RunnerError,
    current_runner,
    using_runner,
)
from repro.analysis.metrics import (
    BUCKET_LABELS,
    coverage_buckets,
    geomean_speedup,
    mpki_table,
    speedups,
)
from repro.analysis.report import format_pct, render_series, render_table

__all__ = [
    "BUCKET_LABELS", "CACHE_SCHEMA_VERSION", "Job", "OverheadModel",
    "RunManifest", "Runner", "RunnerError", "StructureBudget",
    "TraceProfile", "bar_chart", "bench_windows",
    "cache_path", "characterize", "config_signature", "coverage_buckets",
    "current_runner", "format_pct", "geomean_speedup", "grouped_bar_chart",
    "mpki_table", "render_series", "render_table", "run_cached", "sparkline",
    "speedups", "sweep", "sweep_configs", "using_runner",
]
