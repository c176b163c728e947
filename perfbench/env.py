"""Checkout discovery, run isolation and host accounting.

Everything a run writes lives under ``.perfbench_work/`` in the checkout
and is removed when the run ends. Each pass gets a fresh result-cache
root (and, for the service, a fresh journal), so no pass sees state from
an earlier run, and ``benchmarks/.cache``, ``BENCH_simperf.json`` and
``benchmarks/results/`` are never touched.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

#: worker slots: exactly the CPUs this process may run on. More slots
#: than cores would fold CPU waiting into every job's wall time.
NPROC = len(os.sched_getaffinity(0))

#: environment switches that change what the program does or where it
#: writes; pinned so every run measures the same program
PINNED_ENV = {
    "REPRO_SCALAR_PREDICTORS": "0",
    "REPRO_DEBUG_SKIPS": "0",
    "REPRO_BENCH_JOBS": str(NPROC),
    "REPRO_BENCH_SCALE": "small",
}


class CheckoutError(RuntimeError):
    """The benchmark is not running inside a checkout with sources."""


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise CheckoutError(f"no repro sources at {package}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != package.resolve():
        raise CheckoutError(f"repro imported from {repro.__file__}, "
                            f"not from {package}")
    return repro


class Workspace:
    """One run's working tree; :meth:`fresh` hands out empty directories."""

    def __init__(self) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.root = WORK_DIR / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.root.mkdir()
        self._count = 0
        tmp = self.fresh("tmp")
        os.environ.update(PINNED_ENV)
        os.environ["TMPDIR"] = str(tmp)
        os.environ["REPRO_CACHE_DIR"] = str(self.fresh("cache"))

    def fresh(self, label: str) -> Path:
        self._count += 1
        path = self.root / f"{self._count:03d}-{label}"
        path.mkdir()
        return path

    def fresh_cache(self, label: str) -> Path:
        """A new empty cache root, made the process's ``REPRO_CACHE_DIR``
        (children inherit it)."""
        path = self.fresh(label)
        os.environ["REPRO_CACHE_DIR"] = str(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass   # another run still owns a subdirectory


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: this checkout's sources
    first, then the benchmark package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def setup_time(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to
    submit ``workload`` (see :mod:`perfbench.setup_probe`)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.setup_probe", workload,
         str(seed)], cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(60) != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed


def summary_row(label: str, values: Sequence[float]) -> list:
    return [label, len(values), f"{median(values):.4f}",
            f"{min(values):.4f}", f"{max(values):.4f}"]


def end_to_end(title: str, latency_label: str, setups: List[float],
               colds: List[float], warms: List[float], kips: List[float],
               latencies: List[List[float]], pooled: bool = True,
               extra_rows=()) -> Dict[str, dict]:
    """Print every sample set of a run and return the end-to-end metrics
    they give (all but ``peak_rss_mb``).

    ``latencies`` holds one list per cold pass. Pooled, the percentiles
    are taken over all of them. Otherwise each pass's percentile is
    taken and the median over passes reported: a pass of a few
    dissimilar calls has its median between two clusters of call times,
    where pooling would report the extremes of both clusters.
    """
    flat = [t for group in latencies for t in group]
    if pooled:
        p50, p90 = median(flat), percentile(flat, 90)
        basis = f"over {len(flat)} samples"
    else:
        p50 = median([median(group) for group in latencies])
        p90 = median([percentile(group, 90) for group in latencies])
        basis = (f"median over {len(latencies)} passes of "
                 f"{len(latencies[0])} samples each")
    print_table(title, ["measure", "samples", "median", "min", "max"],
                [summary_row("set-up (s)", setups), *extra_rows,
                 summary_row("cold pass wall (s)", colds),
                 summary_row("warm sample wall (s)", warms),
                 summary_row("sim kinstr/CPU-s", kips),
                 summary_row(f"{latency_label} (s)", flat)])
    print(f"  {latency_label} p50 {p50:.4f} s, p90 {p90:.4f} s {basis}, "
          f"{sum(1 for t in flat if t > p90)} of {len(flat)} beyond p90")
    return {"setup_s": metric(median(setups), "s"),
            "cold_s": metric(median(colds), "s"),
            "warm_s": metric(median(warms), "s"),
            "sim_kips": metric(median(kips), "kinstr/CPU-s"),
            "request_p50_s": metric(p50, "s"),
            "request_p90_s": metric(p90, "s")}


def environment_record() -> dict:
    import numpy
    record = dict(PINNED_ENV)
    record["REPRO_CACHE_DIR"] = "fresh per pass under .perfbench_work/"
    record.update(nproc=NPROC, python=platform.python_version(),
                  numpy=numpy.__version__)
    return record


def cpu_seconds() -> float:
    """Host CPU seconds of this process plus every reaped descendant."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak resident set of the largest single process: this one or any
    reaped descendant (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], pct: int) -> float:
    """``pct``-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_table(title: str, header: Sequence[str],
                rows: List[Sequence[object]]) -> None:
    cells = [[str(c) for c in header]] + [[str(c) for c in row]
                                          for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    print(f"\n{title}")
    for n, row in enumerate(cells):
        print("  " + "  ".join(c.rjust(w) if i else c.ljust(w)
                               for i, (c, w) in enumerate(zip(row, widths))))
        if n == 0:
            print("  " + "  ".join("-" * w for w in widths))


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, dict]) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})
