"""Opcode definitions for the simulator's micro-op ISA.

The ISA is a small RISC-style register machine: 32 architectural registers,
fixed 4-byte uops, explicit branch classes. It is rich enough to express the
synthetic workloads and the GAP-style graph kernels while keeping the
functional emulator and the timing model simple.
"""

from __future__ import annotations

from enum import Enum, auto

__all__ = ["Op", "BranchKind", "NUM_ARCH_REGS", "UOP_BYTES",
           "MEMORY_OPS", "BRANCH_OPS", "FU_NAMES", "FU_ALU", "FU_MUL",
           "FU_DIV", "FU_LOAD", "FU_STORE", "FU_BRANCH", "EXEC_CLASS"]

NUM_ARCH_REGS = 32
UOP_BYTES = 4


class Op(Enum):
    """Micro-operation opcodes."""

    # Integer ALU (dest <- src1 op src2 / imm)
    ADD = auto()
    SUB = auto()
    AND = auto()
    OR = auto()
    XOR = auto()
    SHL = auto()
    SHR = auto()
    CMPLT = auto()    # dest = 1 if src1 < src2 else 0
    CMPEQ = auto()    # dest = 1 if src1 == src2 else 0
    ADDI = auto()     # dest = src1 + imm
    ANDI = auto()
    XORI = auto()
    SHRI = auto()
    MOVI = auto()     # dest = imm
    MUL = auto()
    DIV = auto()      # dest = src1 // max(1, src2)
    MOD = auto()      # dest = src1 %  max(1, src2)

    # Memory (address = src1 + imm)
    LOAD = auto()     # dest <- mem[src1 + imm]
    STORE = auto()    # mem[src1 + imm] <- src2

    # Control flow
    BEQZ = auto()     # branch if src1 == 0
    BNEZ = auto()     # branch if src1 != 0
    BLT = auto()      # branch if src1 < src2
    BGE = auto()      # branch if src1 >= src2
    JUMP = auto()     # unconditional direct
    CALL = auto()     # direct call, pushes return address
    RET = auto()      # indirect return via RAS
    IJUMP = auto()    # indirect jump through register src1

    # Misc
    NOP = auto()
    HALT = auto()     # terminates the functional trace


class BranchKind(Enum):
    """Control-flow classes the predictor distinguishes."""

    NOT_BRANCH = auto()
    CONDITIONAL = auto()
    DIRECT_JUMP = auto()
    CALL = auto()
    RETURN = auto()
    INDIRECT = auto()


CONDITIONAL_OPS = frozenset({Op.BEQZ, Op.BNEZ, Op.BLT, Op.BGE})
BRANCH_OPS = frozenset(
    CONDITIONAL_OPS | {Op.JUMP, Op.CALL, Op.RET, Op.IJUMP})
MEMORY_OPS = frozenset({Op.LOAD, Op.STORE})

#: execution classes, named; ``StaticUop.fu`` holds the index, which the
#: execute stage uses to reach its per-class ports, latencies and slots
FU_NAMES = ("alu", "mul", "div", "load", "store", "branch")
FU_ALU, FU_MUL, FU_DIV, FU_LOAD, FU_STORE, FU_BRANCH = range(len(FU_NAMES))

#: opcode -> execution class: every branch on a branch unit, and every op
#: not named here on an integer ALU
EXEC_CLASS = {op: FU_ALU for op in Op}
EXEC_CLASS.update({Op.MUL: FU_MUL, Op.DIV: FU_DIV, Op.MOD: FU_DIV,
                   Op.LOAD: FU_LOAD, Op.STORE: FU_STORE})
EXEC_CLASS.update(dict.fromkeys(BRANCH_OPS, FU_BRANCH))


def branch_kind(op: Op) -> BranchKind:
    """Classify an opcode's control-flow behaviour."""
    if op in CONDITIONAL_OPS:
        return BranchKind.CONDITIONAL
    if op is Op.JUMP:
        return BranchKind.DIRECT_JUMP
    if op is Op.CALL:
        return BranchKind.CALL
    if op is Op.RET:
        return BranchKind.RETURN
    if op is Op.IJUMP:
        return BranchKind.INDIRECT
    return BranchKind.NOT_BRANCH
