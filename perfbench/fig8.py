"""fig8-campaign: Fig. 8's 32 cells through ``Runner``, cold then warm.

What a user waits for when regenerating the headline figure: the 16
workloads x {``small_core_config()``, ``.with_apf()``} on ``nproc``
worker slots. Every cell forks a worker that rebuilds its program and
re-emulates its trace before the ``core.run`` that dominates. The warm
pass re-issues the same jobs against the filled result cache.

Windows are shorter than the ``small`` bench scale so that several
whole cold passes fit in one run.
"""

from __future__ import annotations

import random
import time
from typing import List, Tuple

from perfbench import env
from perfbench.digest import Gate, sim_seed

NAME = "fig8-campaign"
WARMUP, MEASURE = 4_000, 4_000
#: rounds at least, so the per-cell latencies number over 100
MIN_ROUNDS = 4
SETUPS_PER_ROUND = 3
WARM_SAMPLES_PER_ROUND = 2
#: warm passes averaged into one sample: a pass lasts tens of
#: milliseconds, too short to average over the host's speed phases
WARM_PASSES_PER_SAMPLE = 12


def cells(seed: int) -> List[Tuple[str, object]]:
    """``(reference label, Job)`` for the 32 cells, in a seeded order."""
    from repro.analysis.runner import make_job
    from repro.common.config import small_core_config
    from repro.workloads.profiles import ALL_NAMES
    base = small_core_config()
    sseed = sim_seed(seed)
    out = [(f"fig8/{workload}/{label}/{WARMUP}+{MEASURE}/s{sseed}",
            make_job(workload, config, WARMUP, MEASURE, sseed))
           for label, config in (("base", base), ("apf", base.with_apf()))
           for workload in ALL_NAMES]
    random.Random(f"fig8-order/{seed}").shuffle(out)
    return out


def ready(seed: int) -> None:
    """Everything a user does before submitting: imports, jobs, runner."""
    from repro.analysis.runner import Runner
    cells(seed)
    Runner(jobs=env.NPROC, progress=False)


def outcome(result) -> dict:
    return {"cycles": result.cycles, "instructions": result.instructions,
            "counters": result.counters}


def run_pass(jobs, gate: Gate, phase: str,
             recorder=None) -> Tuple[float, float, List[float]]:
    """One pass over the campaign; returns ``(wall_s, cpu_s, the job wall
    the runner recorded for every cell it ran)``.

    The caller chooses the cache root: fresh for a cold pass, the last
    cold pass's for a warm one. With a ``recorder`` the timed region is
    also a ``bench.pass`` span.
    """
    from repro.analysis.runner import Runner
    from repro.workloads.profiles import clear_trace_cache
    # forked workers would otherwise inherit this process's programs and
    # traces, and the per-cell rebuild would never show
    clear_trace_cache()
    runner = Runner(jobs=env.NPROC, progress=False)
    span = recorder.start("bench.pass", phase=phase) if recorder else None
    cpu0 = env.cpu_seconds()
    start = time.perf_counter()
    results = runner.run([job for _label, job in jobs], strict=False)
    wall = time.perf_counter() - start
    cpu = env.cpu_seconds() - cpu0
    if span is not None:
        recorder.finish(span)
    for label, job in jobs:
        result = results.get(job)
        gate.record(f"{phase} {label}", gate.problems(
            label, None if result is None else outcome(result),
            job.config.backend.allocate_width))
    cell_walls = [entry["wall_time_s"] for entry in runner.manifest.jobs
                  if not entry["cache_hit"]]
    return wall, cpu, cell_walls


def warm_sample(jobs, gate: Gate) -> float:
    """Mean wall of :data:`WARM_PASSES_PER_SAMPLE` warm passes."""
    return sum(run_pass(jobs, gate, "warm")[0]
               for _ in range(WARM_PASSES_PER_SAMPLE)) \
        / WARM_PASSES_PER_SAMPLE


def kinstr(jobs) -> float:
    """Trace instructions the core advances through, in thousands."""
    return sum(job.warmup + job.measure for _label, job in jobs) / 1000.0


def measure(ws: env.Workspace, seed: int, seconds: float,
            gate: Gate) -> dict:
    """Rounds of set-ups, one cold pass and warm passes, repeated while
    the budget lasts, so that every metric's samples spread over the
    whole run and a slow phase of the host biases none of them."""
    jobs = cells(seed)
    setups, colds, warms, kips, latencies = [], [], [], [], []
    budget_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setups.extend(env.setup_time(NAME, seed)
                      for _ in range(SETUPS_PER_ROUND))
        ws.fresh_cache("fig8-cold")
        wall, cpu, cell_walls = run_pass(jobs, gate, "cold")
        colds.append(wall)
        kips.append(kinstr(jobs) / cpu)
        latencies.append(cell_walls)
        warms.extend(warm_sample(jobs, gate)
                     for _ in range(WARM_SAMPLES_PER_ROUND))
        now = time.perf_counter()
        if (len(colds) >= MIN_ROUNDS
                and now - budget_start + now - round_start > seconds):
            break
    return env.end_to_end(
        f"{NAME}: {len(jobs)} cells, windows {WARMUP}+{MEASURE}, "
        f"{env.NPROC} slots, {len(colds)} rounds", "cell job wall",
        setups, colds, warms, kips, latencies)


def traced(ws: env.Workspace, seed: int, gate: Gate, recorder) -> dict:
    """One untraced cold pass, then a traced cold and a traced warm pass.

    Returns the untraced and traced cold walls and the cold-pass wall
    the runner's slots were available for."""
    from perfbench import spans
    jobs = cells(seed)
    ws.fresh_cache("fig8-untraced")
    untraced = run_pass(jobs, gate, "cold")[0]
    spans.install(recorder)
    ws.fresh_cache("fig8-traced")
    cold = run_pass(jobs, gate, "cold", recorder)[0]
    run_pass(jobs, gate, "warm", recorder)
    return {"untraced_cold_s": untraced, "traced_cold_s": cold,
            "busy_wall_s": cold}
