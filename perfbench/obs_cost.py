"""What an attached observability sink costs the core loop.

``core.run`` with an ``ObsSink`` attached, divided by the same run
without one, over the sampled-pairs cells. The two sides alternate in
order so slow phases of the host hit both alike, and their simulated
cycles must agree: a sink may not change timing.
"""

from __future__ import annotations

import time
from typing import Tuple

from perfbench.digest import sim_seed

WARMUP, MEASURE = 2_000, 2_000
REPEATS = 2


def overhead_ratio(seed: int) -> Tuple[float, str]:
    """``(ratio, base)``: attached / detached core.run seconds."""
    from repro.core.ooo_core import OoOCore
    from repro.obs import ObsSink
    from repro.workloads.profiles import (build_workload, clear_trace_cache,
                                          workload_trace)
    from perfbench import sampled
    total = WARMUP + MEASURE
    seconds = {False: 0.0, True: 0.0}
    pairs = 0
    for _label, workload, config in sampled.cells(seed):
        program = build_workload(workload)
        trace = workload_trace(workload, total)
        for repeat in range(REPEATS):
            cycles = set()
            for attach in ((False, True) if repeat % 2 else (True, False)):
                core = OoOCore(config, program, trace, seed=sim_seed(seed))
                if attach:
                    core.attach_obs(ObsSink())
                start = time.perf_counter()
                core.run(total, warmup=WARMUP)
                seconds[attach] += time.perf_counter() - start
                cycles.add(core.now)
            if len(cycles) != 1:
                raise RuntimeError(f"{workload}: an attached ObsSink "
                                   f"changed simulated cycles {cycles}")
            pairs += 1
    clear_trace_cache()
    return seconds[True] / seconds[False], (
        f"{seconds[True]:.3f} s attached / {seconds[False]:.3f} s "
        f"detached over {pairs} interleaved core.run pairs of "
        f"{WARMUP}+{MEASURE} instructions")
