"""Functional (architectural) emulator for the uop ISA.

Executes a :class:`~repro.workloads.program.Program` to produce the
correct-path :class:`~repro.workloads.trace.DynamicTrace`. All values are
64-bit unsigned; comparisons are unsigned. Memory is word-addressed (8-byte
words): reads go to the words this run stored, then to the program's dense
data image (read through, one word at a time, never copied), and words the
image does not define read as a deterministic hash of their address so
wrong-path-reachable data is also reproducible.
"""

from __future__ import annotations

from typing import Dict, List

from repro.isa.opcodes import NUM_ARCH_REGS, Op
from repro.workloads.program import Program
from repro.workloads.trace import DynamicTrace

__all__ = ["Emulator", "EmulationError"]

_MASK64 = (1 << 64) - 1
_WORD = 8

# Op members bound once as module names: on Python 3.11 and older
# EnumType defines ``__getattr__``, which sends every ``Op.X`` read
# through a slow lookup hook, and the dispatch chain below compares each
# emulated uop against up to 29 of them (docs/ARCHITECTURE.md §8.4)
_ADD, _SUB, _AND, _OR, _XOR = Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR
_SHL, _SHR, _CMPLT, _CMPEQ = Op.SHL, Op.SHR, Op.CMPLT, Op.CMPEQ
_ADDI, _ANDI, _XORI = Op.ADDI, Op.ANDI, Op.XORI
_SHRI, _MOVI, _MUL, _DIV, _MOD = Op.SHRI, Op.MOVI, Op.MUL, Op.DIV, Op.MOD
_LOAD, _STORE = Op.LOAD, Op.STORE
_BEQZ, _BNEZ, _BLT, _BGE = Op.BEQZ, Op.BNEZ, Op.BLT, Op.BGE
_JUMP, _CALL, _RET, _IJUMP = Op.JUMP, Op.CALL, Op.RET, Op.IJUMP
_NOP, _HALT = Op.NOP, Op.HALT


class EmulationError(RuntimeError):
    """Raised when execution leaves the image or exceeds its budget."""


def _default_memory_value(addr: int) -> int:
    """Deterministic pseudo-random value for uninitialised memory."""
    z = (addr * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    return (z ^ (z >> 27)) & _MASK64


class Emulator:
    """Architectural interpreter producing the dynamic trace.

    Stores go to a dict of the words this run wrote; the program's data
    image is only read, through memoryviews of its arrays, so a load
    costs one index into them and no per-word copy of the image exists.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.regs: List[int] = [0] * NUM_ARCH_REGS
        self._data_base = program.data_base
        self._words = memoryview(program.data_words)
        self._present = memoryview(program.data_present)
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
            index = (aligned - self._data_base) // _WORD
            if 0 <= index < len(self._present) and self._present[index]:
                value = self._words[index]
            else:
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
            next_pc = uop.fallthrough
            mem_addr = 0

            if op is _ADD:
                regs[uop.dest] = (regs[uop.src1] + regs[uop.src2]) & _MASK64
            elif op is _ADDI:
                regs[uop.dest] = (regs[uop.src1] + uop.imm) & _MASK64
            elif op is _SUB:
                regs[uop.dest] = (regs[uop.src1] - regs[uop.src2]) & _MASK64
            elif op is _AND:
                regs[uop.dest] = regs[uop.src1] & regs[uop.src2]
            elif op is _ANDI:
                regs[uop.dest] = regs[uop.src1] & (uop.imm & _MASK64)
            elif op is _OR:
                regs[uop.dest] = regs[uop.src1] | regs[uop.src2]
            elif op is _XOR:
                regs[uop.dest] = regs[uop.src1] ^ regs[uop.src2]
            elif op is _XORI:
                regs[uop.dest] = regs[uop.src1] ^ (uop.imm & _MASK64)
            elif op is _SHL:
                regs[uop.dest] = (regs[uop.src1]
                                  << (regs[uop.src2] & 63)) & _MASK64
            elif op is _SHR:
                regs[uop.dest] = regs[uop.src1] >> (regs[uop.src2] & 63)
            elif op is _SHRI:
                regs[uop.dest] = regs[uop.src1] >> (uop.imm & 63)
            elif op is _CMPLT:
                regs[uop.dest] = 1 if regs[uop.src1] < regs[uop.src2] else 0
            elif op is _CMPEQ:
                regs[uop.dest] = 1 if regs[uop.src1] == regs[uop.src2] else 0
            elif op is _MOVI:
                regs[uop.dest] = uop.imm & _MASK64
            elif op is _MUL:
                regs[uop.dest] = (regs[uop.src1] * regs[uop.src2]) & _MASK64
            elif op is _DIV:
                regs[uop.dest] = regs[uop.src1] // max(1, regs[uop.src2])
            elif op is _MOD:
                regs[uop.dest] = regs[uop.src1] % max(1, regs[uop.src2])
            elif op is _LOAD:
                mem_addr = (regs[uop.src1] + uop.imm) & _MASK64
                regs[uop.dest] = self.read_word(mem_addr)
            elif op is _STORE:
                mem_addr = (regs[uop.src1] + uop.imm) & _MASK64
                self.write_word(mem_addr, regs[uop.src2])
            elif op is _BEQZ:
                taken = regs[uop.src1] == 0
            elif op is _BNEZ:
                taken = regs[uop.src1] != 0
            elif op is _BLT:
                taken = regs[uop.src1] < regs[uop.src2]
            elif op is _BGE:
                taken = regs[uop.src1] >= regs[uop.src2]
            elif op is _JUMP:
                taken = True
            elif op is _CALL:
                taken = True
                self.call_stack.append(uop.fallthrough)
            elif op is _RET:
                taken = True
                if not self.call_stack:
                    raise EmulationError(
                        f"{program.name}: RET with empty call stack at "
                        f"{uop.pc:#x}")
                next_pc = self.call_stack.pop()
            elif op is _IJUMP:
                taken = True
                next_pc = regs[uop.src1] & _MASK64
            elif op is _NOP:
                pass
            elif op is _HALT:
                self.halted = True
            else:  # pragma: no cover - exhaustive over Op
                raise EmulationError(f"unhandled opcode {op}")

            if taken and op is not _RET and op is not _IJUMP:
                next_pc = uop.target
            self.pc = next_pc
            self.instructions_executed += 1
            trace.append(uop, taken, next_pc, mem_addr)
        return trace
