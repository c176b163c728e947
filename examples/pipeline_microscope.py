#!/usr/bin/env python3
"""Pipeline microscope: watch an APF restore happen cycle-by-cycle.

Records two cores (baseline and APF) running the same high-MPKI workload
with an EventRecorder, finds a misprediction recovery, and renders the
timeline around it — showing the re-fill bubble on the baseline and the
restored alternate-path uops (marked '+') filling it under APF.

Run:  python examples/pipeline_microscope.py
"""

from collections import Counter

from repro.common.config import small_core_config
from repro.core.ooo_core import OoOCore
from repro.obs import (EV_RESOLVE, EV_RESTORE, EventRecorder,
                       render_timeline, replay_timelines)
from repro.workloads.profiles import build_workload, workload_trace

WORKLOAD = "leela"
TOTAL = 9_000


def traced_run(config):
    program = build_workload(WORKLOAD)
    trace = workload_trace(WORKLOAD, TOTAL)
    core = OoOCore(config, program, trace, seed=5)
    recorder = EventRecorder()
    core.attach_obs(recorder)
    core.run(TOTAL)
    events = list(recorder.events)
    recoveries = [e[1] for e in events if e[0] == EV_RESOLVE and e[3]]
    restores = [e[1] for e in events if e[0] == EV_RESTORE]
    return core, events, recoveries, restores


def main() -> None:
    print(f"Running {WORKLOAD!r} twice with pipeline tracing...\n")
    base_core, base_events, base_recoveries, _ = traced_run(
        small_core_config())
    apf_core, apf_events, apf_recoveries, apf_restores = traced_run(
        small_core_config().with_apf())
    lives = {"baseline": replay_timelines(base_events).values(),
             "APF": replay_timelines(apf_events).values()}
    restored = sum(1 for life in lives["APF"] if life.restored)

    print(f"baseline: IPC {base_core.ipc():.3f}, "
          f"{len(base_recoveries)} recoveries")
    print(f"APF:      IPC {apf_core.ipc():.3f}, "
          f"{len(apf_recoveries)} recoveries, "
          f"{len(apf_restores)} restores, "
          f"{restored} restored uops\n")

    if apf_restores:
        at = apf_restores[len(apf_restores) // 2]
        print(f"=== APF core around the restore at cycle {at} ===")
        print("(flags: w wrong-path, + restored from APF buffer, "
              "! mispredicted branch)")
        print(render_timeline(apf_events, at - 6, at + 24, max_rows=40))
        print()

    if base_recoveries:
        at = base_recoveries[len(base_recoveries) // 2]
        print(f"=== baseline core around the recovery at cycle {at} ===")
        print(render_timeline(base_events, at - 6, at + 24, max_rows=40))
        print()

    print("frontend (fetch -> allocate) latency distribution:")
    for label, uops in lives.items():
        hist = Counter(life.allocate_cycle - life.fetch_cycle
                       for life in uops if life.allocate_cycle is not None)
        total = sum(hist.values()) or 1
        fast = sum(c for d, c in hist.items() if d < 10) / total
        print(f"  {label:9s} min={min(hist)} "
              f"P(<10 cycles)={fast:.1%}  (restored uops skip the "
              f"frontend pipe)" if label == "APF" else
              f"  {label:9s} min={min(hist)} P(<10 cycles)={fast:.1%}")


if __name__ == "__main__":
    main()
