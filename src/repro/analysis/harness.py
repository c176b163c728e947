"""Experiment harness with a persistent, crash-safe on-disk result cache.

Every benchmark (one per paper table/figure) funnels its simulations
through :func:`run_cached` or :func:`sweep`, keyed by (workload, config,
windows, seed). Experiments that share configurations — e.g. the Fig. 8
APF runs feeding Table IV's bank-conflict numbers — therefore reuse each
other's results, and re-running a bench after an unrelated code change is
cheap.

Cache integrity rules:

* Entries are committed atomically (``tmp`` file + ``os.replace``), so an
  interrupted run can never leave a truncated JSON file behind.
* Unreadable or malformed entries are treated as misses — the simulation
  re-runs and overwrites the bad file instead of crashing.
* Keys embed :data:`CACHE_SCHEMA_VERSION` and a canonical sorted-JSON
  signature of the config dataclass tree, so a payload-format change or a
  config field addition/reorder can never be served as a stale hit.

``sweep``/``sweep_configs`` route through the process-parallel
:mod:`repro.analysis.runner`; by default they run serially, but inside a
``runner.using_runner(...)`` block (as installed by ``repro bench``) the
same calls fan out across a worker pool.

Set ``REPRO_BENCH_SCALE=full`` for longer windows (slower, smoother
numbers); the default "small" scale reproduces every qualitative result in
minutes on one CPU.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.cachedir import cache_root
from repro.common.config import CoreConfig
from repro.common.statistics import ConfidenceInterval, Histogram
from repro.core.simulator import SimResult, Simulator
from repro.sampling import SamplingPlan, SamplingSimulator

__all__ = ["CACHE_SCHEMA_VERSION", "bench_windows", "cache_path",
           "commit_payload", "config_signature", "current_sampling",
           "deserialize_result", "entry_path", "load_cache_payload",
           "payload_bytes", "probe_payload", "result_key", "run_cached",
           "serialize_result", "store_cache_payload", "sweep",
           "sweep_configs", "using_sampling"]

_SCALE_ENV = "REPRO_BENCH_SCALE"

#: Bump whenever the cache payload format or the signature scheme changes:
#: the version is embedded in every cache key, so entries written by an
#: older scheme can never be returned as hits.
CACHE_SCHEMA_VERSION = 3   # 3: counters carry cpi_* slot attribution

#: (warmup, measure) instruction windows per scale; "tiny" is for CI
#: smoke runs and is too short for the paper's qualitative assertions
_WINDOWS = {
    "tiny": (2_000, 1_500),
    "small": (40_000, 25_000),
    "full": (100_000, 60_000),
}


def bench_windows() -> Tuple[int, int]:
    scale = os.environ.get(_SCALE_ENV, "small")
    if scale not in _WINDOWS:
        raise ValueError(f"unknown {_SCALE_ENV}={scale!r}; "
                         f"choose from {sorted(_WINDOWS)}")
    return _WINDOWS[scale]


def cache_path() -> Path:
    """The cache root (see :func:`repro.common.cachedir.cache_root`),
    created if missing."""
    path = cache_root()
    path.mkdir(parents=True, exist_ok=True)
    return path


def config_signature(config) -> str:
    """Stable signature of a (frozen) config dataclass tree.

    Canonical sorted-JSON of ``dataclasses.asdict`` — invariant under
    field *reordering* and independent of ``repr`` formatting, while any
    value change (including a newly added field) changes the signature.
    """
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def result_key(workload: str, config: CoreConfig, warmup: int,
               measure: int, seed: int,
               sampling: Optional[SamplingPlan] = None) -> str:
    """Cache key for one simulation.

    Sampled runs are keyed by the plan (which fixes the trace length and
    every window size) instead of the dense warmup/measure pair, so dense
    keys — and therefore every pre-existing cache entry — are unchanged.
    """
    if sampling is not None:
        return (f"v{CACHE_SCHEMA_VERSION}-{workload}-"
                f"{sampling.cache_tag()}-{seed}-{config_signature(config)}")
    return (f"v{CACHE_SCHEMA_VERSION}-{workload}-{warmup}-{measure}-"
            f"{seed}-{config_signature(config)}")


# --------------------------------------------------------------------------
# Ambient sampling plan
# --------------------------------------------------------------------------

_ACTIVE_SAMPLING: Optional[SamplingPlan] = None


@contextmanager
def using_sampling(plan: Optional[SamplingPlan]) -> Iterator[
        Optional[SamplingPlan]]:
    """Make ``plan`` the default for every :func:`run_cached`/:func:`sweep`
    call in the block (``None`` is a no-op). ``repro bench --sampling``
    uses this so unmodified benches run in sampled mode."""
    global _ACTIVE_SAMPLING
    previous = _ACTIVE_SAMPLING
    _ACTIVE_SAMPLING = plan
    try:
        yield plan
    finally:
        _ACTIVE_SAMPLING = previous


def current_sampling() -> Optional[SamplingPlan]:
    """The ambient sampling plan, or ``None`` for dense simulation."""
    return _ACTIVE_SAMPLING


def entry_path(key: str) -> Path:
    return cache_path() / f"{key}.json"


def serialize_result(result: SimResult) -> dict:
    payload = {
        "workload": result.workload,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "branch_mpki": result.branch_mpki,
        "cond_branches": result.cond_branches,
        "cond_mispredicts": result.cond_mispredicts,
        "counters": result.counters,
        "refill_saved": {str(k): v
                         for k, v in result.refill_saved.buckets.items()},
    }
    if result.sampled:
        payload["interval_ipcs"] = list(result.interval_ipcs)
    if result.ipc_ci is not None:
        payload["ipc_ci"] = {
            "mean": result.ipc_ci.mean,
            "half_width": result.ipc_ci.half_width,
            "confidence": result.ipc_ci.confidence,
            "samples": result.ipc_ci.samples,
        }
    return payload


def deserialize_result(payload: dict) -> SimResult:
    hist = Histogram()
    for bucket, count in payload.get("refill_saved", {}).items():
        hist.add(int(bucket), count)
    ci = None
    if "ipc_ci" in payload:
        raw = payload["ipc_ci"]
        ci = ConfidenceInterval(raw["mean"], raw["half_width"],
                                raw["confidence"], raw["samples"])
    return SimResult(
        interval_ipcs=list(payload.get("interval_ipcs", [])),
        ipc_ci=ci,
        workload=payload["workload"],
        instructions=payload["instructions"],
        cycles=payload["cycles"],
        ipc=payload["ipc"],
        branch_mpki=payload["branch_mpki"],
        cond_branches=payload["cond_branches"],
        cond_mispredicts=payload["cond_mispredicts"],
        counters=payload["counters"],
        refill_saved=hist,
    )


def load_cache_payload(path: Path) -> Tuple[Optional[dict], bool]:
    """Read a cache entry; return ``(payload, corrupt)``.

    ``(None, False)`` means a clean miss (no file); ``(None, True)`` means
    the file exists but is unreadable or malformed — the caller should
    re-run the simulation and overwrite it.
    """
    try:
        with path.open() as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return None, False
    except (json.JSONDecodeError, OSError, UnicodeDecodeError, ValueError):
        return None, True
    if not isinstance(payload, dict) or "workload" not in payload:
        return None, True
    return payload, False


def store_cache_payload(path: Path, payload: dict) -> None:
    """Atomically commit ``payload`` as the cache entry at ``path``.

    Written to a temp file in the same directory and moved into place
    with ``os.replace``, so readers only ever see complete entries. The
    pid suffix keeps concurrent writers from clobbering each other's
    temp files; last completed write wins (entries for one key are
    identical by construction).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with tmp.open("w") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def probe_payload(key: str) -> Tuple[Optional[dict], bool]:
    """Key-level cache probe: ``(payload, corrupt)`` for the entry at
    ``key`` (see :func:`load_cache_payload` for the contract). This is
    the content-addressed read the service result store is built on."""
    return load_cache_payload(entry_path(key))


def commit_payload(key: str, payload: dict) -> Path:
    """Key-level atomic commit of ``payload``; returns the entry path.

    Entries written here are byte-identical to the ones
    :func:`run_cached` and the runner write for the same key: the same
    canonical sorted-key JSON via :func:`store_cache_payload`.
    """
    path = entry_path(key)
    store_cache_payload(path, payload)
    return path


def payload_bytes(payload: dict) -> bytes:
    """The exact bytes :func:`store_cache_payload` commits for
    ``payload`` — the canonical form for byte-identity assertions."""
    return json.dumps(payload, sort_keys=True).encode()


def run_cached(workload: str, config: CoreConfig,
               warmup: Optional[int] = None, measure: Optional[int] = None,
               seed: int = 1234, use_cache: bool = True,
               sampling: Optional[SamplingPlan] = None) -> SimResult:
    """Run one simulation, consulting the on-disk cache first.

    With a ``sampling`` plan (explicit, or ambient via
    :func:`using_sampling`) the run goes through the interval-sampling
    simulator instead of a dense window; dense warmup/measure are then
    ignored and the cache is keyed by the plan.
    """
    if sampling is None:
        sampling = current_sampling()
    default_warmup, default_measure = bench_windows()
    warmup = default_warmup if warmup is None else warmup
    measure = default_measure if measure is None else measure
    path = entry_path(result_key(workload, config, warmup, measure, seed,
                                 sampling))
    if use_cache:
        payload, _corrupt = load_cache_payload(path)
        if payload is not None:
            return deserialize_result(payload)
    if sampling is not None:
        result = SamplingSimulator(config, seed=seed).run(workload, sampling)
    else:
        result = Simulator(config, seed=seed).run(workload, warmup, measure)
    if use_cache:
        store_cache_payload(path, serialize_result(result))
    return result


def sweep(workloads: Iterable[str], config: CoreConfig,
          warmup: Optional[int] = None, measure: Optional[int] = None,
          seed: int = 1234,
          sampling: Optional[SamplingPlan] = None) -> Dict[str, SimResult]:
    """Run one configuration over many workloads via the active runner."""
    from repro.analysis import runner as _runner
    if sampling is None:
        sampling = current_sampling()
    return _runner.current_runner().run_sweep(workloads, config,
                                              warmup, measure, seed,
                                              sampling=sampling)


def sweep_configs(workloads: Iterable[str],
                  configs: Dict[str, CoreConfig],
                  warmup: Optional[int] = None,
                  measure: Optional[int] = None,
                  seed: int = 1234,
                  sampling: Optional[SamplingPlan] = None
                  ) -> Dict[str, Dict[str, SimResult]]:
    """Run {config_name: config} over all workloads as one flat campaign."""
    from repro.analysis import runner as _runner
    if sampling is None:
        sampling = current_sampling()
    names: List[str] = list(workloads)
    return _runner.current_runner().run_sweep_configs(names, configs,
                                                      warmup, measure, seed,
                                                      sampling=sampling)
