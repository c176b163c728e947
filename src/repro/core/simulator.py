"""Top-level simulation facade.

:class:`Simulator` wires a workload (by name or explicit program/trace) to
an :class:`~repro.core.ooo_core.OoOCore` and returns a :class:`SimResult`
with the measured-window metrics every benchmark harness consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.config import CoreConfig, small_core_config
from repro.common.statistics import ConfidenceInterval, Histogram, ratio
from repro.workloads.profiles import load_workload
from repro.workloads.program import Program
from repro.workloads.trace import DynamicTrace

from repro.core.ooo_core import OoOCore

__all__ = ["SimResult", "Simulator", "run_benchmark"]


@dataclass
class SimResult:
    """Measured-window metrics of one simulation run."""

    workload: str
    instructions: int
    cycles: int
    ipc: float
    branch_mpki: float
    cond_branches: int
    cond_mispredicts: int
    counters: Dict[str, int] = field(default_factory=dict)
    refill_saved: Histogram = field(default_factory=Histogram)
    # populated only by sampled runs (repro.sampling)
    interval_ipcs: List[float] = field(default_factory=list)
    ipc_ci: Optional[ConfidenceInterval] = None

    @property
    def sampled(self) -> bool:
        return bool(self.interval_ipcs)

    def speedup_over(self, baseline: "SimResult") -> float:
        if self.ipc <= 0 or baseline.ipc <= 0:
            raise ValueError("cannot compute speedup with zero IPC")
        return self.ipc / baseline.ipc

    # Table II metrics -------------------------------------------------------

    def specificity(self, marker: str = "h2p") -> float:
        """Fraction of mispredicted branches that were marked."""
        marked_mis = self.counters.get(f"{marker}_marked_mis", 0)
        return ratio(marked_mis, self.cond_mispredicts)

    def wastage(self, marker: str = "h2p") -> float:
        """1 - PVN: fraction of marked branches that did NOT mispredict."""
        marked = self.counters.get(f"{marker}_marked", 0)
        marked_mis = self.counters.get(f"{marker}_marked_mis", 0)
        return ratio(marked - marked_mis, marked)

    def apf_conflict_fraction(self) -> float:
        """Table IV: share of APF-active cycles lost to bank conflicts."""
        conflicts = self.counters.get("apf_bank_conflict_cycles", 0)
        active = self.counters.get("apf_active_cycles", 0)
        return ratio(conflicts, active)


class Simulator:
    """Runs one core configuration over one workload."""

    def __init__(self, config: Optional[CoreConfig] = None,
                 seed: int = 1234) -> None:
        self.config = config if config is not None else small_core_config()
        self.seed = seed

    def run(self, workload: str, warmup: int = 30_000,
            measure: int = 60_000,
            program: Optional[Program] = None,
            trace: Optional[DynamicTrace] = None) -> SimResult:
        """Simulate ``warmup + measure`` instructions; report the measured
        window."""
        total = warmup + measure
        if program is None or trace is None:
            stored_program, stored_trace = load_workload(workload, total)
            program = stored_program if program is None else program
            trace = stored_trace if trace is None else trace
        core = OoOCore(self.config, program, trace, seed=self.seed)
        core.run(total, warmup=warmup)
        counters = {key: core.measured(key)
                    for key in core.stats.counters}
        hist = Histogram()
        saved = core.stats.histograms.get("refill_saved")
        if saved is not None:
            hist.merge(saved)
        return SimResult(
            workload=workload,
            instructions=core.measured_instructions(),
            cycles=core.measured_cycles(),
            ipc=core.ipc(),
            branch_mpki=core.branch_mpki(),
            cond_branches=core.measured("cond_branches"),
            cond_mispredicts=core.measured("cond_mispredicts"),
            counters=counters,
            refill_saved=hist,
        )


def run_benchmark(workload: str, config: Optional[CoreConfig] = None,
                  warmup: int = 30_000, measure: int = 60_000,
                  seed: int = 1234) -> SimResult:
    """Convenience one-shot runner used by examples and benches."""
    return Simulator(config, seed=seed).run(workload, warmup, measure)
