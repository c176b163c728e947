"""Functional (architectural) emulator for the uop ISA.

Executes a :class:`~repro.workloads.program.Program` to produce the
correct-path :class:`~repro.workloads.trace.DynamicTrace`. All values are
64-bit unsigned; comparisons are unsigned. Memory is word-addressed (8-byte
words): reads go to the words this run stored, then to the program's data
image (read through, never copied), and uninitialised words read as a
deterministic hash of their address so wrong-path-reachable data is also
reproducible.
"""

from __future__ import annotations

from typing import Dict, List

from repro.isa.opcodes import NUM_ARCH_REGS, UOP_BYTES, Op
from repro.workloads.program import Program
from repro.workloads.trace import DynamicTrace

__all__ = ["Emulator", "EmulationError"]

_MASK64 = (1 << 64) - 1
_WORD = 8


class EmulationError(RuntimeError):
    """Raised when execution leaves the image or exceeds its budget."""


def _default_memory_value(addr: int) -> int:
    """Deterministic pseudo-random value for uninitialised memory."""
    z = (addr * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    return (z ^ (z >> 27)) & _MASK64


class Emulator:
    """Architectural interpreter producing the dynamic trace."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.regs: List[int] = [0] * NUM_ARCH_REGS
        self._image = program.initial_data
        #: words stored during this run, shadowing the image
        self.memory: Dict[int, int] = {}
        self.call_stack: List[int] = []
        self.pc = program.entry_pc
        self.instructions_executed = 0
        self.halted = False

    # -- memory --------------------------------------------------------------

    def read_word(self, addr: int) -> int:
        aligned = addr & ~(_WORD - 1)
        value = self.memory.get(aligned)
        if value is None:
            value = self._image.get(aligned)
            if value is None:
                value = _default_memory_value(aligned)
        return value

    def write_word(self, addr: int, value: int) -> None:
        self.memory[addr & ~(_WORD - 1)] = value & _MASK64

    # -- execution -----------------------------------------------------------

    def run(self, max_instructions: int) -> DynamicTrace:
        """Execute up to ``max_instructions``; return the dynamic trace."""
        trace = DynamicTrace(self.program.name)
        program = self.program
        regs = self.regs
        while (not self.halted
               and self.instructions_executed < max_instructions):
            uop = program.uop_at(self.pc)
            if uop is None:
                raise EmulationError(
                    f"{program.name}: execution left the image at "
                    f"{self.pc:#x} after {self.instructions_executed} uops")
            op = uop.op
            taken = False
            next_pc = uop.pc + UOP_BYTES
            mem_addr = 0

            if op is Op.ADD:
                regs[uop.dest] = (regs[uop.src1] + regs[uop.src2]) & _MASK64
            elif op is Op.ADDI:
                regs[uop.dest] = (regs[uop.src1] + uop.imm) & _MASK64
            elif op is Op.SUB:
                regs[uop.dest] = (regs[uop.src1] - regs[uop.src2]) & _MASK64
            elif op is Op.AND:
                regs[uop.dest] = regs[uop.src1] & regs[uop.src2]
            elif op is Op.ANDI:
                regs[uop.dest] = regs[uop.src1] & (uop.imm & _MASK64)
            elif op is Op.OR:
                regs[uop.dest] = regs[uop.src1] | regs[uop.src2]
            elif op is Op.XOR:
                regs[uop.dest] = regs[uop.src1] ^ regs[uop.src2]
            elif op is Op.XORI:
                regs[uop.dest] = regs[uop.src1] ^ (uop.imm & _MASK64)
            elif op is Op.SHL:
                regs[uop.dest] = (regs[uop.src1]
                                  << (regs[uop.src2] & 63)) & _MASK64
            elif op is Op.SHR:
                regs[uop.dest] = regs[uop.src1] >> (regs[uop.src2] & 63)
            elif op is Op.SHRI:
                regs[uop.dest] = regs[uop.src1] >> (uop.imm & 63)
            elif op is Op.CMPLT:
                regs[uop.dest] = 1 if regs[uop.src1] < regs[uop.src2] else 0
            elif op is Op.CMPEQ:
                regs[uop.dest] = 1 if regs[uop.src1] == regs[uop.src2] else 0
            elif op is Op.MOVI:
                regs[uop.dest] = uop.imm & _MASK64
            elif op is Op.MUL:
                regs[uop.dest] = (regs[uop.src1] * regs[uop.src2]) & _MASK64
            elif op is Op.DIV:
                regs[uop.dest] = regs[uop.src1] // max(1, regs[uop.src2])
            elif op is Op.MOD:
                regs[uop.dest] = regs[uop.src1] % max(1, regs[uop.src2])
            elif op is Op.LOAD:
                mem_addr = (regs[uop.src1] + uop.imm) & _MASK64
                regs[uop.dest] = self.read_word(mem_addr)
            elif op is Op.STORE:
                mem_addr = (regs[uop.src1] + uop.imm) & _MASK64
                self.write_word(mem_addr, regs[uop.src2])
            elif op is Op.BEQZ:
                taken = regs[uop.src1] == 0
            elif op is Op.BNEZ:
                taken = regs[uop.src1] != 0
            elif op is Op.BLT:
                taken = regs[uop.src1] < regs[uop.src2]
            elif op is Op.BGE:
                taken = regs[uop.src1] >= regs[uop.src2]
            elif op is Op.JUMP:
                taken = True
            elif op is Op.CALL:
                taken = True
                self.call_stack.append(uop.pc + UOP_BYTES)
            elif op is Op.RET:
                taken = True
                if not self.call_stack:
                    raise EmulationError(
                        f"{program.name}: RET with empty call stack at "
                        f"{uop.pc:#x}")
                next_pc = self.call_stack.pop()
            elif op is Op.IJUMP:
                taken = True
                next_pc = regs[uop.src1] & _MASK64
            elif op is Op.NOP:
                pass
            elif op is Op.HALT:
                self.halted = True
            else:  # pragma: no cover - exhaustive over Op
                raise EmulationError(f"unhandled opcode {op}")

            if taken and op not in (Op.RET, Op.IJUMP):
                next_pc = uop.target
            self.pc = next_pc
            self.instructions_executed += 1
            trace.append(uop, taken, next_pc, mem_addr)
        return trace
