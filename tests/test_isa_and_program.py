"""Tests for the uop ISA and the program builder."""

import numpy as np
import pytest

from repro.isa.opcodes import FU_NAMES, UOP_BYTES, BranchKind, Op, branch_kind
from repro.isa.uop import StaticUop
from repro.workloads.program import CODE_BASE, Program, ProgramBuilder


def initial_words(program, base, count):
    """The initial values of ``count`` words from byte address ``base``,
    None where the data image defines none."""
    first = (base - program.data_base) // 8
    return [int(program.data_words[i]) if program.data_present[i] else None
            for i in range(first, first + count)]


class TestBranchKind:
    def test_conditionals(self):
        for op in (Op.BEQZ, Op.BNEZ, Op.BLT, Op.BGE):
            assert branch_kind(op) is BranchKind.CONDITIONAL

    def test_control_kinds(self):
        assert branch_kind(Op.JUMP) is BranchKind.DIRECT_JUMP
        assert branch_kind(Op.CALL) is BranchKind.CALL
        assert branch_kind(Op.RET) is BranchKind.RETURN
        assert branch_kind(Op.IJUMP) is BranchKind.INDIRECT

    def test_non_branch(self):
        assert branch_kind(Op.ADD) is BranchKind.NOT_BRANCH
        assert branch_kind(Op.LOAD) is BranchKind.NOT_BRANCH


#: the execution class of every op whose class is not "alu": the table the
#: execute stage kept before classes were decoded into ``StaticUop.fu``
REFERENCE_FU = {
    Op.MUL: "mul", Op.DIV: "div", Op.MOD: "div", Op.LOAD: "load",
    Op.STORE: "store", Op.BEQZ: "branch", Op.BNEZ: "branch",
    Op.BLT: "branch", Op.BGE: "branch", Op.JUMP: "branch",
    Op.CALL: "branch", Op.RET: "branch", Op.IJUMP: "branch",
}


class TestStaticUop:
    @pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
    def test_decoded_traits(self, op):
        uop = StaticUop(0x2000, op, dest=1, src1=2, src2=3, target=0x40)
        assert FU_NAMES[uop.fu] == REFERENCE_FU.get(op, "alu")
        assert uop.is_load is (op is Op.LOAD)
        assert uop.is_store is (op is Op.STORE)
        assert uop.is_mem is (uop.is_load or uop.is_store)
        assert uop.fallthrough == 0x2000 + UOP_BYTES

    def test_fallthrough(self):
        uop = StaticUop(0x1000, Op.ADD, dest=1, src1=2, src2=3)
        assert uop.fallthrough == 0x1004

    def test_sources(self):
        uop = StaticUop(0, Op.ADD, dest=1, src1=2, src2=3)
        assert uop.sources() == (2, 3)
        uop = StaticUop(0, Op.MOVI, dest=1, imm=7)
        assert uop.sources() == ()

    def test_flags(self):
        branch = StaticUop(0, Op.BEQZ, src1=1, target=64)
        assert branch.is_branch and branch.is_cond_branch
        load = StaticUop(0, Op.LOAD, dest=1, src1=2)
        assert load.is_mem and not load.is_branch


class TestProgramBuilder:
    def test_label_and_branch_fixup(self):
        b = ProgramBuilder()
        b.movi(1, 5)
        loop = b.label("loop")
        b.emit(Op.ADDI, dest=1, src1=1, imm=-1)
        b.branch(Op.BNEZ, loop, src1=1)
        b.halt()
        program = b.finalize()
        branch = program.uops()[2]
        assert branch.target == program.uops()[1].pc

    def test_forward_reference(self):
        b = ProgramBuilder()
        b.jump("end")
        b.movi(1, 1)
        b.label("end")
        b.halt()
        program = b.finalize()
        assert program.uops()[0].target == program.uops()[2].pc

    def test_undefined_label_raises(self):
        b = ProgramBuilder()
        b.jump("nowhere")
        with pytest.raises(ValueError, match="undefined label"):
            b.finalize()

    def test_duplicate_label_raises(self):
        b = ProgramBuilder()
        b.label("x")
        b.nop_pad(1)
        with pytest.raises(ValueError, match="defined twice"):
            b.label("x")

    def test_align_pads_with_nops(self):
        b = ProgramBuilder()
        b.nop_pad(3)
        b.align(64)
        assert b.next_pc % 64 == 0

    def test_alloc_array_values_and_address(self):
        b = ProgramBuilder()
        base = b.alloc_array("arr", 4, values=[10, 20, 30, 40])
        b.halt()
        program = b.finalize()
        assert initial_words(program, base, 4) == [10, 20, 30, 40]
        assert program.data_end >= base + 32

    def test_alloc_array_fill_value_and_absent_words(self):
        b = ProgramBuilder()
        gap = b.alloc_array("gap", 2)
        ones = b.alloc_array("ones", 3, values=7)
        program = b.finalize()
        assert initial_words(program, gap, 2) == [None, None]
        assert initial_words(program, ones, 3) == [7, 7, 7]
        assert program.data_end == ones + 24
        assert program.data_words.dtype == np.uint64
        assert not program.data_words.flags.writeable

    def test_alloc_array_refuses_values_it_cannot_hold(self):
        for values in ([-1], [1 << 64], [1, 2]):
            with pytest.raises(ValueError):
                ProgramBuilder().alloc_array("bad", 1, values=values)

    def test_empty_data_image_is_one_absent_word(self):
        b = ProgramBuilder()
        b.halt()
        program = b.finalize()
        assert program.data_end == program.data_base + 8
        assert program.data_present.tolist() == [False]

    def test_alloc_duplicate_name_raises(self):
        b = ProgramBuilder()
        b.alloc_array("a", 1)
        with pytest.raises(ValueError):
            b.alloc_array("a", 1)

    def test_register_range_checked(self):
        b = ProgramBuilder()
        with pytest.raises(ValueError):
            b.emit(Op.ADD, dest=32, src1=0, src2=1)


class TestProgram:
    def test_uop_at_bounds(self):
        b = ProgramBuilder()
        b.movi(1, 1)
        b.halt()
        program = b.finalize()
        assert program.uop_at(CODE_BASE).op is Op.MOVI
        assert program.uop_at(CODE_BASE + 4).op is Op.HALT
        assert program.uop_at(CODE_BASE + 8) is None
        assert program.uop_at(CODE_BASE - 4) is None
        assert program.uop_at(CODE_BASE + 2) is None  # misaligned

    def test_non_contiguous_image_rejected(self):
        good = StaticUop(CODE_BASE, Op.NOP)
        bad = StaticUop(CODE_BASE + 8, Op.NOP)
        with pytest.raises(ValueError):
            Program([good, bad], CODE_BASE, [0], [False])

    def test_code_bytes(self):
        b = ProgramBuilder()
        b.nop_pad(10)
        assert len(b.finalize()) == 10
        assert b.finalize().code_bytes == 40
