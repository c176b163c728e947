"""sampled-pairs: base/APF pairs through ``harness.run_cached``, sampled.

All in-process: no runner, no daemon. Both sides of a pair use one
``SamplingPlan.for_dense_window`` plan and one seed, so they see
identical window placements. The pass exercises ``repro.sampling``
(functional warming, quiesce between intervals), traces 4x the dense
window, and the core in short detailed intervals; it bypasses the
runner, the cache's hot path and the service, so it is the control on
which runner or service changes must not move any metric.

* leela -- the highest-MPKI SPEC workload and APF's best case.
* mcf -- memory-bound, with hard-to-predict branches resolved by slow
  loads.
* tc -- a GAP kernel and the slowest cell.
* xalancbmk -- low MPKI and a large code footprint, where APF does
  almost nothing.
"""

from __future__ import annotations

import random
import time
from typing import List, Tuple

from perfbench import env
from perfbench.digest import Gate, sim_seed

NAME = "sampled-pairs"
WORKLOADS = ("leela", "mcf", "tc", "xalancbmk")
#: dense window the sampling plan expands 4x. Short, so that a run
#: holds many cold passes and its medians span the host's speed phases.
WINDOW = 2_000
SETUPS_PER_ROUND = 1
WARM_SAMPLES_PER_ROUND = 1
#: warm passes averaged into one sample: a pass lasts milliseconds, too
#: short to average over the host's speed phases
WARM_PASSES_PER_SAMPLE = 50


def plan():
    from repro.sampling import SamplingPlan
    return SamplingPlan.for_dense_window(WINDOW)


def cells(seed: int) -> List[Tuple[str, str, object]]:
    """``(reference label, workload, config)``, pairs in a seeded order."""
    from repro.common.config import small_core_config
    base = small_core_config()
    tag = plan().cache_tag()
    sseed = sim_seed(seed)
    order = list(WORKLOADS)
    random.Random(f"pairs-order/{seed}").shuffle(order)
    return [(f"pairs/{workload}/{label}/{tag}/s{sseed}", workload, config)
            for workload in order
            for label, config in (("base", base), ("apf", base.with_apf()))]


def ready(seed: int) -> None:
    """Everything a user does before the first ``run_cached`` call."""
    from repro.analysis import harness  # noqa: F401  (the entry point)
    cells(seed)


def outcome(result) -> dict:
    return {"cycles": result.cycles, "instructions": result.instructions,
            "counters": result.counters, "ipc": result.ipc,
            "ipc_ci": {"half_width": result.ipc_ci.half_width}}


def run_pass(seed: int, gate: Gate, phase: str, recorder=None) -> dict:
    """One pass of ``run_cached`` calls on the current cache root: a
    fresh one for a cold pass, the last cold pass's for a warm one.

    Returns the pass wall and CPU seconds, every call's latency, and the
    trace instructions advanced (detailed plus functionally warmed).
    """
    from repro.analysis import harness
    from repro.workloads.profiles import clear_trace_cache
    clear_trace_cache()
    todo = cells(seed)
    sampling = plan()
    sseed = sim_seed(seed)
    results, latencies = [], []
    span = recorder.start("bench.pass", phase=phase) if recorder else None
    cpu0 = env.cpu_seconds()
    start = time.perf_counter()
    for _label, workload, config in todo:
        called = time.perf_counter()
        results.append(harness.run_cached(workload, config, seed=sseed,
                                          sampling=sampling))
        latencies.append(time.perf_counter() - called)
    wall = time.perf_counter() - start
    cpu = env.cpu_seconds() - cpu0
    if span is not None:
        recorder.finish(span)
    advanced = 0
    for (label, _workload, config), result in zip(todo, results):
        advanced += (result.counters["sampling_detailed_instructions"]
                     + result.counters["sampling_functional_instructions"])
        gate.record(f"{phase} {label}", gate.problems(
            label, outcome(result), config.backend.allocate_width,
            sampled=True))
    return {"wall": wall, "cpu": cpu, "latencies": latencies,
            "kinstr": advanced / 1000.0}


def warm_sample(seed: int, gate: Gate) -> float:
    """Mean wall of :data:`WARM_PASSES_PER_SAMPLE` warm passes."""
    return sum(run_pass(seed, gate, "warm")["wall"]
               for _ in range(WARM_PASSES_PER_SAMPLE)) \
        / WARM_PASSES_PER_SAMPLE


def measure(ws: env.Workspace, seed: int, seconds: float,
            gate: Gate) -> dict:
    """Rounds of set-ups, one cold pass and warm passes, repeated while
    the budget lasts (see :func:`perfbench.fig8.measure`)."""
    setups, colds, warms, kips, latencies = [], [], [], [], []
    budget_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setups.extend(env.setup_time(NAME, seed)
                      for _ in range(SETUPS_PER_ROUND))
        ws.fresh_cache("pairs-cold")
        cold = run_pass(seed, gate, "cold")
        colds.append(cold["wall"])
        kips.append(cold["kinstr"] / cold["cpu"])
        latencies.append(cold["latencies"])
        warms.extend(warm_sample(seed, gate)
                     for _ in range(WARM_SAMPLES_PER_ROUND))
        now = time.perf_counter()
        if now - budget_start + now - round_start > seconds:
            break
    return env.end_to_end(
        f"{NAME}: {len(WORKLOADS)} pairs, {plan().describe()}, "
        f"{len(colds)} rounds", "cold run_cached call",
        setups, colds, warms, kips, latencies, pooled=False)


def traced(ws: env.Workspace, seed: int, gate: Gate, recorder) -> dict:
    """One untraced cold pass, then one traced cold pass."""
    from perfbench import spans
    ws.fresh_cache("pairs-untraced")
    untraced = run_pass(seed, gate, "cold")["wall"]
    spans.install(recorder)
    ws.fresh_cache("pairs-traced")
    cold = run_pass(seed, gate, "cold", recorder)["wall"]
    run_pass(seed, gate, "warm", recorder)
    return {"untraced_cold_s": untraced, "traced_cold_s": cold,
            "busy_wall_s": cold}
