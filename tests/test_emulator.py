"""Functional emulator tests: semantics of every opcode plus trace shape."""

import pytest

from repro.isa.opcodes import Op
from repro.workloads.emulator import (EmulationError, Emulator,
                                     _default_memory_value)
from repro.workloads.program import ProgramBuilder

_MASK64 = (1 << 64) - 1


def run_program(build, max_instructions=10_000):
    b = ProgramBuilder()
    build(b)
    program = b.finalize()
    emu = Emulator(program)
    trace = emu.run(max_instructions)
    return emu, trace


class TestArithmetic:
    def test_add_sub_wraparound(self):
        def build(b):
            b.movi(1, _MASK64)
            b.movi(2, 1)
            b.alu(Op.ADD, 3, 1, 2)    # wraps to 0
            b.alu(Op.SUB, 4, 3, 2)    # wraps to 2^64-1
            b.halt()
        emu, _ = run_program(build)
        assert emu.regs[3] == 0
        assert emu.regs[4] == _MASK64

    def test_logic_ops(self):
        def build(b):
            b.movi(1, 0b1100)
            b.movi(2, 0b1010)
            b.alu(Op.AND, 3, 1, 2)
            b.alu(Op.OR, 4, 1, 2)
            b.alu(Op.XOR, 5, 1, 2)
            b.emit(Op.ANDI, dest=6, src1=1, imm=0b0110)
            b.emit(Op.XORI, dest=7, src1=1, imm=0b1111)
            b.halt()
        emu, _ = run_program(build)
        assert emu.regs[3] == 0b1000
        assert emu.regs[4] == 0b1110
        assert emu.regs[5] == 0b0110
        assert emu.regs[6] == 0b0100
        assert emu.regs[7] == 0b0011

    def test_shifts(self):
        def build(b):
            b.movi(1, 0b1)
            b.movi(2, 3)
            b.emit(Op.SHL, dest=3, src1=1, src2=2)
            b.emit(Op.SHR, dest=4, src1=3, src2=2)
            b.emit(Op.SHRI, dest=5, src1=3, imm=1)
            b.halt()
        emu, _ = run_program(build)
        assert emu.regs[3] == 8
        assert emu.regs[4] == 1
        assert emu.regs[5] == 4

    def test_mul_div_mod(self):
        def build(b):
            b.movi(1, 7)
            b.movi(2, 3)
            b.alu(Op.MUL, 3, 1, 2)
            b.alu(Op.DIV, 4, 1, 2)
            b.alu(Op.MOD, 5, 1, 2)
            b.movi(6, 0)
            b.alu(Op.DIV, 7, 1, 6)   # divide by zero clamps divisor to 1
            b.halt()
        emu, _ = run_program(build)
        assert emu.regs[3] == 21
        assert emu.regs[4] == 2
        assert emu.regs[5] == 1
        assert emu.regs[7] == 7

    def test_compares(self):
        def build(b):
            b.movi(1, 5)
            b.movi(2, 9)
            b.alu(Op.CMPLT, 3, 1, 2)
            b.alu(Op.CMPLT, 4, 2, 1)
            b.alu(Op.CMPEQ, 5, 1, 1)
            b.halt()
        emu, _ = run_program(build)
        assert (emu.regs[3], emu.regs[4], emu.regs[5]) == (1, 0, 1)


class TestMemory:
    def test_store_load_roundtrip(self):
        def build(b):
            base = b.alloc_array("buf", 4)
            b.movi(1, base)
            b.movi(2, 0xDEAD)
            b.store(2, 1, offset=8)
            b.load(3, 1, offset=8)
            b.halt()
        emu, trace = run_program(build)
        assert emu.regs[3] == 0xDEAD
        mem_ops = [(u.op, a) for u, a in zip(trace.uops, trace.mem_addr)
                   if u.is_mem]
        assert len(mem_ops) == 2
        assert mem_ops[0][1] == mem_ops[1][1]

    def test_initial_data_visible(self):
        def build(b):
            base = b.alloc_array("arr", 2, values=[111, 222])
            b.movi(1, base)
            b.load(2, 1, offset=0)
            b.load(3, 1, offset=8)
            b.halt()
        emu, _ = run_program(build)
        assert emu.regs[2] == 111
        assert emu.regs[3] == 222

    def test_absent_words_read_as_their_address_hash(self):
        """Words the image leaves absent, inside it or just outside it,
        read as the address hash; defined words read their value."""
        def build(b):
            gap = b.alloc_array("gap", 2)
            one = b.alloc_array("one", 1, values=[7])
            b.movi(1, gap)
            for reg, offset in enumerate((-8, 0, 8, 16, 24), start=2):
                b.load(reg, 1, offset=offset)
            b.halt()
        emu, trace = run_program(build)
        addrs = [a for u, a in zip(trace.uops, trace.mem_addr) if u.is_mem]
        expected = [_default_memory_value(a) for a in addrs]
        expected[3] = 7
        assert emu.regs[2:7] == expected

    def test_uninitialised_memory_is_deterministic(self):
        def build(b):
            b.movi(1, 0x5000_0000)
            b.load(2, 1)
            b.halt()
        emu1, _ = run_program(build)
        emu2, _ = run_program(build)
        assert emu1.regs[2] == emu2.regs[2]


class TestControlFlow:
    def test_loop_executes_n_times(self):
        def build(b):
            b.movi(1, 5)
            b.movi(2, 0)
            loop = b.label("loop")
            b.emit(Op.ADDI, dest=2, src1=2, imm=1)
            b.emit(Op.ADDI, dest=1, src1=1, imm=-1)
            b.branch(Op.BNEZ, loop, src1=1)
            b.halt()
        emu, trace = run_program(build)
        assert emu.regs[2] == 5
        branch_outcomes = [t for u, t in zip(trace.uops, trace.taken)
                           if u.is_cond_branch]
        assert branch_outcomes == [True] * 4 + [False]

    def test_blt_bge(self):
        def build(b):
            b.movi(1, 2)
            b.movi(2, 5)
            b.branch(Op.BLT, "took_lt", src1=1, src2=2)
            b.halt()
            b.label("took_lt")
            b.branch(Op.BGE, "took_ge", src1=2, src2=1)
            b.halt()
            b.label("took_ge")
            b.movi(3, 1)
            b.halt()
        emu, _ = run_program(build)
        assert emu.regs[3] == 1

    def test_call_ret(self):
        def build(b):
            b.jump("main")
            b.label("fn")
            b.movi(5, 42)
            b.ret()
            b.label("main")
            b.call("fn")
            b.movi(6, 7)
            b.halt()
        emu, trace = run_program(build)
        assert emu.regs[5] == 42
        assert emu.regs[6] == 7
        # RET's next_pc must be the instruction after the CALL
        ret_entries = [n for u, n in zip(trace.uops, trace.next_pc)
                       if u.op is Op.RET]
        call_uop = next(u for u in trace.uops if u.op is Op.CALL)
        assert ret_entries == [call_uop.fallthrough]

    def test_ret_without_call_raises(self):
        def build(b):
            b.ret()
        with pytest.raises(EmulationError, match="empty call stack"):
            run_program(build)

    def test_ijump_through_table(self):
        def build(b):
            b.jump("start")
            case = b.next_pc
            b.movi(5, 99)
            b.halt()
            table = b.alloc_array("tbl", 1, values=[case])
            b.label("start")
            b.movi(1, table)
            b.load(2, 1)
            b.emit(Op.IJUMP, src1=2)
        emu, _ = run_program(build)
        assert emu.regs[5] == 99

    def test_off_image_execution_raises(self):
        def build(b):
            b.movi(1, 1)   # no halt: falls off the end
        with pytest.raises(EmulationError, match="left the image"):
            run_program(build)

    def test_instruction_budget_stops(self):
        def build(b):
            loop = b.label("loop")
            b.jump(loop)
        emu, trace = run_program(build, max_instructions=100)
        assert len(trace) == 100
        assert not emu.halted


class TestTraceShape:
    def test_next_pc_chains(self):
        def build(b):
            b.movi(1, 3)
            loop = b.label("loop")
            b.emit(Op.ADDI, dest=1, src1=1, imm=-1)
            b.branch(Op.BNEZ, loop, src1=1)
            b.halt()
        _, trace = run_program(build)
        for i in range(len(trace) - 1):
            assert trace.next_pc[i] == trace.uops[i + 1].pc

    def test_summary_counters(self):
        def build(b):
            b.movi(1, 4)
            loop = b.label("loop")
            b.emit(Op.ADDI, dest=1, src1=1, imm=-1)
            b.branch(Op.BNEZ, loop, src1=1)
            b.halt()
        _, trace = run_program(build)
        assert trace.count_conditional_branches() == 4
        assert trace.count_taken_branches() == 3
        assert trace.code_footprint() == 4
