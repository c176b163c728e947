"""Dynamic trace: the correct-path execution record.

The functional emulator produces a :class:`DynamicTrace`; the timing
simulator consumes it as the architectural ground truth while fetching
speculatively (and possibly down wrong paths) through the static image.
"""

from __future__ import annotations

from typing import List

from repro.isa.uop import StaticUop

__all__ = ["DynamicTrace"]


class DynamicTrace:
    """Parallel arrays describing every retired (correct-path) instruction.

    index ``i`` holds: the static uop executed, whether a branch was taken,
    the next correct PC, and the effective memory address (0 for non-memory
    uops). The trace is append-only during emulation and read-only afterwards.
    """

    __slots__ = ("uops", "taken", "next_pc", "mem_addr", "program_name")

    def __init__(self, program_name: str = "") -> None:
        self.program_name = program_name
        self.uops: List[StaticUop] = []
        self.taken: List[bool] = []
        self.next_pc: List[int] = []
        self.mem_addr: List[int] = []

    @classmethod
    def from_columns(cls, program_name: str, uops: List[StaticUop],
                     taken: List[bool], next_pc: List[int],
                     mem_addr: List[int]) -> "DynamicTrace":
        """A trace over ready-made columns (taken over, not copied)."""
        trace = cls(program_name)
        trace.uops = uops
        trace.taken = taken
        trace.next_pc = next_pc
        trace.mem_addr = mem_addr
        return trace

    def append(self, uop: StaticUop, taken: bool, next_pc: int,
               mem_addr: int) -> None:
        self.uops.append(uop)
        self.taken.append(taken)
        self.next_pc.append(next_pc)
        self.mem_addr.append(mem_addr)

    def __len__(self) -> int:
        return len(self.uops)

    # -- summary statistics --------------------------------------------------

    def count_conditional_branches(self) -> int:
        return sum(1 for u in self.uops if u.is_cond_branch)

    def count_taken_branches(self) -> int:
        return sum(1 for u, t in zip(self.uops, self.taken)
                   if u.is_branch and t)

    def taken_branch_density(self) -> float:
        if not self.uops:
            return 0.0
        return self.count_taken_branches() / len(self.uops)

    def count_memory_ops(self) -> int:
        return sum(1 for u in self.uops if u.is_mem)

    def code_footprint(self) -> int:
        """Number of distinct static PCs touched (uops)."""
        return len({u.pc for u in self.uops})
