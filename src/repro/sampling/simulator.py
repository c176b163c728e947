"""Interval-sampling simulator: fast-forward, warm up, measure, repeat.

Each sampling period carries one detailed stretch placed at a *random
offset* within the period (stratified sampling, deterministic in the
seed): ``detailed_warmup`` instructions let the pipeline refill and
short-lived state (FTQ, in-flight branches, exec-port reservations) reach
steady state, then ``measure`` instructions are scored. Everything else
in the period is functionally fast-forwarded with
:class:`~repro.sampling.fastforward.FunctionalWarmer`, so long-lived state
(predictors, caches, H2P counters) stays continuously warm across the
whole trace. Randomising the offset matters: several workloads (the graph
kernels especially) have periodic per-iteration CPI structure, and a
fixed offset commensurate with it aliases into a multi-percent bias that
no amount of state fidelity removes.

Per-interval metrics come from stat-counter diffs around the measured
stretch. The aggregate IPC is the ratio of summed instructions to summed
cycles — the same estimator a dense run reports — and its confidence
interval is a Student-t bound over the per-interval CPIs mapped into IPC
space by the delta method (intervals retire near-identical instruction
counts, so mean CPI equals the aggregate CPI).
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.common.config import CoreConfig, small_core_config
from repro.common.statistics import ConfidenceInterval, Histogram, ratio
from repro.workloads.profiles import load_workload
from repro.workloads.program import Program
from repro.workloads.trace import DynamicTrace

from repro.core.ooo_core import OoOCore
from repro.core.simulator import SimResult
from repro.obs.accounting import cpi_slot_deltas
from repro.obs.metrics import current_metric_stream
from repro.sampling.fastforward import FunctionalWarmer
from repro.sampling.plan import SamplingPlan

__all__ = ["SamplingSimulator", "run_sampled"]


class SamplingSimulator:
    """Runs one configuration over one workload under a sampling plan."""

    def __init__(self, config: Optional[CoreConfig] = None,
                 seed: int = 1234) -> None:
        self.config = config if config is not None else small_core_config()
        self.seed = seed

    def run(self, workload: str, plan: SamplingPlan,
            program: Optional[Program] = None,
            trace: Optional[DynamicTrace] = None) -> SimResult:
        if program is None or trace is None:
            stored_program, stored_trace = load_workload(
                workload, plan.total_instructions)
            program = stored_program if program is None else program
            trace = stored_trace if trace is None else trace
        plan = plan.scaled_to_trace(len(trace))
        core = OoOCore(self.config, program, trace, seed=self.seed)
        warmer = FunctionalWarmer(core)

        interval_ipcs = []
        total_instructions = 0
        total_cycles = 0
        summed: Dict[str, int] = {}
        refill_saved = Histogram()
        detailed_instructions = 0
        functional_instructions = 0
        slack = plan.period - plan.detailed_warmup - plan.measure
        # string seeding uses sha512 → stable across processes, unlike hash()
        placement = random.Random("%s/%d/%s" % (workload, self.seed,
                                                plan.cache_tag()))

        for k in range(plan.intervals):
            lead_in = placement.randrange(slack + 1) if slack else 0
            detail_start = k * plan.period + lead_in
            core.quiesce()
            functional_instructions += warmer.advance(
                detail_start - core.retired)
            detailed_before = core.retired
            if plan.detailed_warmup:
                core.run(detail_start + plan.detailed_warmup)
            counters_before = core.stats.snapshot()
            hist_before = {key: dict(hist.buckets)
                           for key, hist in core.stats.histograms.items()}
            cycles_before = core.now
            retired_before = core.retired
            core.run(detail_start + plan.detailed_warmup + plan.measure)
            detailed_instructions += core.retired - detailed_before

            instructions = core.retired - retired_before
            cycles = core.now - cycles_before
            if not instructions:
                # trace exhausted mid-plan (defensive; scaled_to_trace
                # should prevent this) — skip the empty interval
                continue
            interval_ipcs.append(ratio(instructions, cycles))
            stream = current_metric_stream()
            if stream is not None:
                # the per-interval CPI-stack slice rides along as an
                # extra field: consumers can check the sum invariant
                # (width * cycles) per interval, not just per run
                stream.emit("sampling_interval", workload=workload,
                            index=k, instructions=instructions,
                            cycles=cycles,
                            ipc=ratio(instructions, cycles),
                            cpi_slots=cpi_slot_deltas(
                                counters_before, core.stats.counters))
            total_instructions += instructions
            total_cycles += cycles
            for key, value in core.stats.counters.items():
                delta = value - counters_before.get(key, 0)
                if delta:
                    summed[key] = summed.get(key, 0) + delta
            saved = core.stats.histograms.get("refill_saved")
            if saved is not None:
                before = hist_before.get("refill_saved", {})
                for bucket, count in saved.buckets.items():
                    delta = count - before.get(bucket, 0)
                    if delta:
                        refill_saved.add(bucket, delta)

        ipc = ratio(total_instructions, total_cycles)
        ipc_ci = None
        if interval_ipcs:
            # CI over per-interval CPIs (additive across equal-size
            # intervals), mapped to IPC via the delta method:
            # sd(1/X) ~= sd(X) / mean(X)^2
            cpi_ci = ConfidenceInterval.from_samples(
                [1.0 / v for v in interval_ipcs if v > 0] or [0.0],
                plan.confidence)
            half = cpi_ci.half_width * ipc * ipc
            ipc_ci = ConfidenceInterval(ipc, half, plan.confidence,
                                        cpi_ci.samples)
        cond_mispredicts = summed.get("cond_mispredicts", 0)
        summed["sampling_intervals"] = len(interval_ipcs)
        summed["sampling_detailed_instructions"] = detailed_instructions
        summed["sampling_detailed_cycles"] = core.now
        summed["sampling_functional_instructions"] = functional_instructions
        return SimResult(
            workload=workload,
            instructions=total_instructions,
            cycles=total_cycles,
            ipc=ipc,
            branch_mpki=1000.0 * ratio(cond_mispredicts,
                                       total_instructions),
            cond_branches=summed.get("cond_branches", 0),
            cond_mispredicts=cond_mispredicts,
            counters=summed,
            refill_saved=refill_saved,
            interval_ipcs=interval_ipcs,
            ipc_ci=ipc_ci,
        )


def run_sampled(workload: str, plan: SamplingPlan,
                config: Optional[CoreConfig] = None,
                seed: int = 1234) -> SimResult:
    """Convenience one-shot sampled runner (mirrors ``run_benchmark``)."""
    return SamplingSimulator(config, seed=seed).run(workload, plan)
