"""Static micro-op representation.

A :class:`StaticUop` is one 4-byte instruction in the program image. The
timing simulator fetches StaticUops (on both correct and wrong paths); the
functional emulator executes them to produce the dynamic trace.
"""

from __future__ import annotations

from repro.isa.opcodes import (
    BRANCH_OPS,
    MEMORY_OPS,
    UOP_BYTES,
    BranchKind,
    Op,
    branch_kind,
)

__all__ = ["StaticUop"]

#: op -> (kind, is_branch, is_cond_branch, is_mem), so building a uop is
#: one lookup (a program loaded from a trace bundle builds thousands)
_TRAITS = {
    op: (branch_kind(op), op in BRANCH_OPS,
         branch_kind(op) is BranchKind.CONDITIONAL, op in MEMORY_OPS)
    for op in Op
}


class StaticUop:
    """One instruction in the static program image."""

    __slots__ = ("pc", "op", "dest", "src1", "src2", "imm", "target",
                 "kind", "is_branch", "is_cond_branch", "is_mem", "label")

    def __init__(self, pc: int, op: Op, dest: int = -1, src1: int = -1,
                 src2: int = -1, imm: int = 0, target: int = -1,
                 label: str = "") -> None:
        self.pc = pc
        self.op = op
        self.dest = dest
        self.src1 = src1
        self.src2 = src2
        self.imm = imm
        self.target = target          # taken target for direct branches
        (self.kind, self.is_branch, self.is_cond_branch,
         self.is_mem) = _TRAITS[op]
        self.label = label            # optional debugging tag

    @property
    def fallthrough(self) -> int:
        return self.pc + UOP_BYTES

    def sources(self) -> tuple:
        """Architectural source registers read by this uop."""
        srcs = []
        if self.src1 >= 0:
            srcs.append(self.src1)
        if self.src2 >= 0:
            srcs.append(self.src2)
        return tuple(srcs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{self.op.name}"]
        if self.dest >= 0:
            parts.append(f"r{self.dest}")
        if self.src1 >= 0:
            parts.append(f"r{self.src1}")
        if self.src2 >= 0:
            parts.append(f"r{self.src2}")
        if self.imm:
            parts.append(f"#{self.imm}")
        if self.target >= 0:
            parts.append(f"@{self.target:#x}")
        tag = f" <{self.label}>" if self.label else ""
        return f"<{self.pc:#x}: {' '.join(parts)}{tag}>"
