"""Execution timing model and rename table tests."""

from hypothesis import given
from hypothesis import strategies as st

from repro.backend.exec_model import ExecModel
from repro.common.config import BackendConfig
from repro.frontend.rename import RenameTable
from repro.isa.opcodes import (
    FU_ALU,
    FU_BRANCH,
    FU_DIV,
    FU_LOAD,
    FU_MUL,
    NUM_ARCH_REGS,
    Op,
)
from repro.isa.uop import StaticUop


class TestExecModel:
    def make(self, **overrides):
        return ExecModel(BackendConfig(**overrides))

    def test_fu_classes(self):
        def fu(op):
            return StaticUop(0, op).fu
        assert fu(Op.ADD) == FU_ALU
        assert fu(Op.MUL) == FU_MUL
        assert fu(Op.DIV) == FU_DIV
        assert fu(Op.MOD) == FU_DIV
        assert fu(Op.LOAD) == FU_LOAD
        assert fu(Op.BEQZ) == FU_BRANCH

    def test_latencies(self):
        model = self.make(alu_latency=1, mul_latency=3, div_latency=12)
        assert model.latency(FU_ALU) == 1
        assert model.latency(FU_MUL) == 3
        assert model.latency(FU_DIV) == 12

    def test_port_contention_pushes_later(self):
        model = self.make(div_units=1)
        first = model.schedule(FU_DIV, 10)
        second = model.schedule(FU_DIV, 10)
        assert first == 10
        assert second == 11

    def test_issue_width_cap(self):
        model = self.make(int_alu_units=16, issue_width=4)
        cycles = [model.schedule(FU_ALU, 5) for _ in range(6)]
        assert cycles.count(5) == 4
        assert cycles.count(6) == 2

    def test_independent_classes_share_width_only(self):
        model = self.make(issue_width=2, int_alu_units=2, load_ports=2)
        a = model.schedule(FU_ALU, 3)
        b = model.schedule(FU_LOAD, 3)
        c = model.schedule(FU_ALU, 3)
        assert (a, b) == (3, 3)
        assert c == 4

    def test_trim_keeps_future_reservations(self):
        model = self.make(div_units=1)
        model.schedule(FU_DIV, 10_000)
        # force trim bookkeeping path
        for cycle in range(5000):
            model.schedule(FU_ALU, cycle)
        model.trim(9_000)
        assert model.schedule(FU_DIV, 10_000) == 10_001


class TestRenameTable:
    def test_initial_identity_mapping(self):
        rat = RenameTable()
        for reg in range(NUM_ARCH_REGS):
            assert rat.lookup(reg) == reg
            assert rat.ready_cycle(rat.lookup(reg)) == 0

    def test_allocate_gives_fresh_tags(self):
        rat = RenameTable()
        tag1 = rat.allocate(3)
        tag2 = rat.allocate(3)
        assert tag1 != tag2
        assert rat.lookup(3) == tag2

    def test_ready_cycles_follow_tags(self):
        rat = RenameTable()
        tag = rat.allocate(5)
        rat.set_ready(tag, 42)
        assert rat.ready_cycle(rat.lookup(5)) == 42

    def test_checkpoint_restore_exact(self):
        rat = RenameTable()
        tag_a = rat.allocate(1)
        rat.set_ready(tag_a, 10)
        snap = rat.checkpoint()
        tag_b = rat.allocate(1)
        rat.set_ready(tag_b, 99)
        rat.restore(snap)
        assert rat.lookup(1) == tag_a
        assert rat.ready_cycle(rat.lookup(1)) == 10

    def test_old_values_survive_restore(self):
        """Squashed-path tags never alias surviving mappings."""
        rat = RenameTable()
        snap = rat.checkpoint()
        wrong_tag = rat.allocate(2)
        rat.set_ready(wrong_tag, 1000)
        rat.restore(snap)
        assert rat.ready_cycle(rat.lookup(2)) == 0

    @given(st.lists(st.tuples(st.integers(0, NUM_ARCH_REGS - 1),
                              st.integers(0, 100)), max_size=40))
    def test_checkpoints_always_roundtrip(self, ops):
        rat = RenameTable()
        snapshots = []
        for reg, ready in ops:
            snapshots.append((rat.checkpoint(),
                              [rat.lookup(r) for r in range(NUM_ARCH_REGS)]))
            tag = rat.allocate(reg)
            rat.set_ready(tag, ready)
        for snap, mapping in reversed(snapshots):
            rat.restore(snap)
            assert [rat.lookup(r) for r in range(NUM_ARCH_REGS)] == mapping

    def test_settle_keeps_only_the_rat_tags_capped(self):
        rat = RenameTable()
        early = rat.allocate(7)
        rat.set_ready(early, 55)
        late = rat.allocate(8)
        rat.set_ready(late, 500)
        snap = rat.checkpoint()
        for _ in range(3):   # overwritten mappings leave dead tags behind
            rat.set_ready(rat.allocate(9), 700)
        rat.restore(snap)
        rat.settle(100)
        expected = {rat.lookup(reg): 0 for reg in range(NUM_ARCH_REGS)}
        expected[early] = 55
        expected[late] = 100      # capped at the settle cycle
        assert rat.snapshot()["ready"] == expected
