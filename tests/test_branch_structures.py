"""Tests for gshare, BTB, RAS/ShadowRAS, H2P table, indirect predictor,
history registers, and banking."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.branch.banking import (
    BankedTage,
    fetch_banks_touched,
    icache_bank_bits,
    tage_bank_bits,
)
from repro.branch.btb import BTB
from repro.branch.gshare import Gshare
from repro.branch.h2p import H2PTable
from repro.branch.history import SpeculativeHistory
from repro.branch.indirect import IndirectPredictor
from repro.branch.ras import ReturnAddressStack, ShadowRAS
from repro.common.config import BTBConfig, GshareConfig, H2PTableConfig, TageConfig
from repro.isa.opcodes import BranchKind


class TestHistory:
    def test_push_shifts_in_outcomes(self):
        hist = SpeculativeHistory(8)
        hist.push(True)
        hist.push(False)
        hist.push(True)
        assert hist.ghr == 0b101

    def test_bounded_by_max_length(self):
        hist = SpeculativeHistory(4)
        for _ in range(10):
            hist.push(True)
        assert hist.ghr == 0b1111

    def test_checkpoint_restore(self):
        hist = SpeculativeHistory(16)
        hist.push(True, 0x40)
        snap = hist.checkpoint()
        hist.push(False, 0x44)
        hist.push(False, 0x48)
        hist.restore(snap)
        assert hist.checkpoint() == snap

    def test_snapshot_with_does_not_mutate(self):
        hist = SpeculativeHistory(16)
        hist.push(True, 0x40)
        before = hist.checkpoint()
        snap = hist.snapshot_with(True, 0x44)
        assert hist.checkpoint() == before
        hist.push(True, 0x44)
        assert hist.checkpoint() == snap

    def test_copy_from(self):
        a, b = SpeculativeHistory(16), SpeculativeHistory(16)
        a.push(True, 4)
        a.push(False, 8)
        b.copy_from(a)
        assert b.checkpoint() == a.checkpoint()


class TestFoldedHistories:
    """The O(1)-per-push maintained folds must stay bit-identical to
    ``fold_xor`` recomputation of the masked registers — across pushes,
    checkpoint/restore, adopt_folds, and copy_from."""

    GHR_SPECS = [(4, 10), (7, 10), (13, 11), (24, 10), (43, 11),
                 (78, 10), (141, 11), (256, 10), (5, 10), (11, 10),
                 (1, 1), (3, 8), (9, 9)]
    PATH_SPECS = [(8, 10), (14, 11), (16, 10), (2, 2), (32, 7)]

    @staticmethod
    def _expect(hist, specs, register):
        from repro.common.bitops import fold_xor, mask
        return [fold_xor(register & mask(length), length, width)
                for (length, width) in specs]

    def _check(self, hist):
        gv, pv = hist.folds
        assert list(gv) == self._expect(hist, self.GHR_SPECS, hist.ghr)
        assert list(pv) == self._expect(hist, self.PATH_SPECS, hist.path)

    def test_folds_track_recomputation_under_random_pushes(self):
        import random
        rng = random.Random(99)
        hist = SpeculativeHistory(256, path_length=16)
        hist.attach_folds(self.GHR_SPECS, self.PATH_SPECS)
        snapshots = []
        for step in range(2000):
            hist.push(rng.random() < 0.5, rng.randrange(1 << 20) << 2)
            if step % 37 == 0:
                snapshots.append(hist.checkpoint())
            if step % 101 == 100 and snapshots:
                hist.restore(snapshots[rng.randrange(len(snapshots))])
            self._check(hist)

    def test_checkpoint_carries_folds(self):
        hist = SpeculativeHistory(64)
        hist.attach_folds([(24, 10)], [(16, 10)])
        hist.push(True, 0x40)
        snap = hist.checkpoint()
        assert len(snap) == 4
        hist.push(False, 0x44)
        hist.restore(snap)
        assert hist.checkpoint() == snap
        # the restored fold values are the checkpoint's exact tuples
        # (immutable, so sharing is safe and the restore is O(1))
        assert hist.folds == (snap[2], snap[3])

    def test_adopt_folds_then_restore_matches(self):
        main = SpeculativeHistory(64)
        main.attach_folds(self.GHR_SPECS, self.PATH_SPECS)
        for i in range(50):
            main.push(i % 3 == 0, 0x1000 + 4 * i)
        snap = main.checkpoint()
        for i in range(10):
            main.push(True, 0x2000 + 4 * i)
        shadow = SpeculativeHistory(64)
        shadow.adopt_folds(main)
        shadow.restore(snap)
        assert shadow.checkpoint() == snap
        self._check(shadow)

    def test_unattached_history_keeps_two_tuple_checkpoints(self):
        hist = SpeculativeHistory(16)
        hist.push(True, 0x40)
        assert hist.folds is None
        assert len(hist.checkpoint()) == 2


class TestGshare:
    def test_learns_bias(self):
        predictor = Gshare(GshareConfig(log_size=10, history_length=8))
        hist = SpeculativeHistory(8)
        for _ in range(20):
            predictor.update(0x40, hist.ghr, True)
            hist.push(True, 0x40)
        assert predictor.predict(0x40, hist.ghr).taken

    def test_low_confidence_when_weak(self):
        predictor = Gshare(GshareConfig(log_size=10))
        pred = predictor.predict(0x40, 0)
        assert pred.low_confidence  # cold counter is weak

    def test_storage_bits(self):
        predictor = Gshare(GshareConfig(log_size=10, counter_bits=2))
        assert predictor.storage_bits() == (1 << 10) * 2


class TestBankHashes:
    @given(st.integers(min_value=0, max_value=(1 << 48) - 1),
           st.sampled_from([1, 2, 4, 8]))
    def test_bank_in_range(self, pc, banks):
        assert 0 <= tage_bank_bits(pc, banks) < banks

    def test_unsupported_bank_count(self):
        with pytest.raises(ValueError):
            tage_bank_bits(0x40, 3)

    def test_four_bank_hash_matches_table1(self):
        # PC word bits: set bit 0 only -> bit0 of bank = 1, bit1 = 0
        pc = 0b1 << 2
        assert tage_bank_bits(pc, 4) == 0b01
        # set word bit 2 -> bank bit1 = 1
        pc = 0b100 << 2
        assert tage_bank_bits(pc, 4) == 0b10

    def test_icache_bank_uses_bits_5_and_7(self):
        assert icache_bank_bits(0) == 0
        assert icache_bank_bits(1 << 5) == 1
        assert icache_bank_bits(1 << 7) == 2
        assert icache_bank_bits((1 << 5) | (1 << 7)) == 3

    def test_sequential_half_lines_hit_different_banks(self):
        """The baseline's 64B fetch never self-conflicts (Section V-B3)."""
        for base in range(0, 1 << 12, 64):
            banks = fetch_banks_touched(base, 64)
            assert len(banks) == len(set(banks))

    def test_fetch_within_half_line_touches_one_bank(self):
        assert len(fetch_banks_touched(0, 32)) == 1


class TestBankedTage:
    def test_storage_conserved(self):
        cfg = TageConfig(num_tables=4, table_log_size=10,
                         bimodal_log_size=12)
        single = BankedTage(cfg, 1)
        quad = BankedTage(cfg, 4)
        ratio = quad.storage_bits() / single.storage_bits()
        assert 0.8 < ratio < 1.3

    def test_routing_is_by_bank_hash(self):
        cfg = TageConfig(num_tables=4, table_log_size=8)
        banked = BankedTage(cfg, 4, seed=3)
        pc = 0x40
        bank = banked.bank_of(pc)
        hist = SpeculativeHistory(64)
        for _ in range(30):
            banked.update(pc, hist.ghr, True, hist.path)
            hist.push(True, pc)
        # only the routed bank learned the branch
        assert banked.banks[bank].predict(pc, hist.ghr, hist.path).taken

    def test_rejects_bad_bank_count(self):
        with pytest.raises(ValueError):
            BankedTage(TageConfig(), 5)


class TestBTB:
    def make(self, entries=64, assoc=4):
        return BTB(BTBConfig(entries=entries, associativity=assoc))

    def test_miss_then_hit(self):
        btb = self.make()
        assert btb.lookup(0x1000) is None
        btb.insert(0x1000, BranchKind.DIRECT_JUMP, 0x2000)
        assert btb.lookup(0x1000) == (BranchKind.DIRECT_JUMP, 0x2000)

    def test_two_branches_same_region(self):
        btb = self.make()
        btb.insert(0x1000, BranchKind.CONDITIONAL, 0x1100)
        btb.insert(0x1020, BranchKind.CALL, 0x3000)
        assert btb.lookup(0x1000) == (BranchKind.CONDITIONAL, 0x1100)
        assert btb.lookup(0x1020) == (BranchKind.CALL, 0x3000)

    def test_eviction_lru(self):
        btb = self.make(entries=8, assoc=2)   # 4 sets
        regions = [0x1000 + i * 64 * 4 for i in range(3)]  # same set
        for region in regions:
            btb.insert(region, BranchKind.DIRECT_JUMP, region + 4)
        # first inserted should have been evicted
        assert btb.lookup(regions[0]) is None
        assert btb.lookup(regions[2]) is not None

    def test_miss_counter(self):
        btb = self.make()
        btb.lookup(0x40)
        assert btb.misses == 1


class TestRAS:
    def test_push_pop_lifo(self):
        ras = ReturnAddressStack(8)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100
        assert ras.pop() is None

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_zero_entry_stack_drops_every_push(self):
        ras = ReturnAddressStack(0)
        ras.push(0x100)
        ras.push(0x200)
        assert len(ras) == 0
        assert ras.checkpoint() == ()
        assert ras.pop() is None

    def test_checkpoint_restore(self):
        ras = ReturnAddressStack(8)
        ras.push(1)
        snap = ras.checkpoint()
        ras.push(2)
        ras.pop()
        ras.pop()
        ras.restore(snap)
        assert ras.pop() == 1


class TestShadowRAS:
    def test_overlay_pops_before_main(self):
        main = ReturnAddressStack(8)
        main.push(0xAAA)
        shadow = ShadowRAS(main, entries=4)
        shadow.push(0xBBB)
        assert shadow.pop() == 0xBBB
        assert shadow.pop() == 0xAAA   # falls through to main snapshot
        assert shadow.pop() is None

    def test_main_not_disturbed(self):
        main = ReturnAddressStack(8)
        main.push(0xAAA)
        shadow = ShadowRAS(main, entries=4)
        shadow.pop()
        assert main.peek() == 0xAAA

    def test_apply_to_main_replays_calls(self):
        main = ReturnAddressStack(8)
        main.push(0x1)
        main.push(0x2)
        shadow = ShadowRAS(main, entries=4)
        assert shadow.pop() == 0x2      # alternate path returned once
        shadow.push(0x3)                # then called
        shadow.apply_to_main(main)
        assert main.pop() == 0x3
        assert main.pop() == 0x1
        assert main.pop() is None

    def test_state_roundtrip(self):
        main = ReturnAddressStack(8)
        main.push(7)
        shadow = ShadowRAS(main, entries=4)
        shadow.push(9)
        shadow.pop()
        shadow.pop()
        state = shadow.state()
        fresh = ShadowRAS(main, entries=4)
        fresh.load_state(state)
        assert fresh.state() == state

    def test_overlay_capacity(self):
        main = ReturnAddressStack(8)
        shadow = ShadowRAS(main, entries=2)
        for value in (1, 2, 3):
            shadow.push(value)
        assert shadow.pop() == 3
        assert shadow.pop() == 2
        assert shadow.pop() is None   # 1 was dropped; main empty

    def test_zero_entry_overlay_drops_every_push(self):
        main = ReturnAddressStack(8)
        main.push(0xAAA)
        shadow = ShadowRAS(main, entries=0)
        shadow.push(0xBBB)
        shadow.push(0xCCC)
        assert shadow.state() == ((), 0)
        assert shadow.pop() == 0xAAA   # straight through to main
        assert shadow.pop() is None


class TestH2PTable:
    def make(self, **overrides):
        cfg = H2PTableConfig(**overrides)
        return H2PTable(cfg)

    def test_unknown_branch_not_h2p(self):
        table = self.make()
        assert not table.is_h2p(0x1234)
        assert table.counter(0x1234) == 0

    def test_becomes_h2p_after_enough_mispredicts(self):
        table = self.make(h2p_threshold=2)
        pc = 0x4040
        for _ in range(2):
            table.record_misprediction(pc)
        assert not table.is_h2p(pc)      # counter == 2, needs > threshold
        table.record_misprediction(pc)
        assert table.is_h2p(pc)

    def test_counter_saturates(self):
        table = self.make(counter_bits=3)
        for _ in range(20):
            table.record_misprediction(0x40)
        assert table.counter(0x40) == 7

    def test_two_branches_per_line(self):
        table = self.make()
        for _ in range(4):
            table.record_misprediction(0x1000)
            table.record_misprediction(0x1020)
        assert table.is_h2p(0x1000)
        assert table.is_h2p(0x1020)

    def test_third_branch_in_line_dropped(self):
        table = self.make()
        table.record_misprediction(0x1000)
        table.record_misprediction(0x1004)
        table.record_misprediction(0x1008)
        assert table.dropped_allocations == 1
        assert table.counter(0x1008) == 0

    def test_periodic_decrement(self):
        table = self.make(decrement_period=1000)
        for _ in range(4):
            table.record_misprediction(0x40)
        before = table.counter(0x40)
        table.tick_instructions(2500)
        assert table.counter(0x40) == before - 2

    def test_decrement_frees_entry_for_reallocation(self):
        table = self.make(decrement_period=100)
        table.record_misprediction(0x40)
        table.tick_instructions(100)
        assert table.counter(0x40) == 0
        # the freed slot can now host another branch in the same line
        table.record_misprediction(0x44)
        assert table.counter(0x44) == 1


class TestIndirectPredictor:
    def test_learns_last_target(self):
        predictor = IndirectPredictor()
        predictor.update(0x40, 0, 0x9000)
        assert predictor.predict(0x40, 0) == 0x9000

    def test_history_disambiguates_targets(self):
        predictor = IndirectPredictor()
        for _ in range(4):
            predictor.update(0x40, 0b0, 0x9000)
            predictor.update(0x40, 0b1, 0x9100)
        assert predictor.predict(0x40, 0b0) == 0x9000
        assert predictor.predict(0x40, 0b1) == 0x9100

    def test_unknown_returns_none(self):
        assert IndirectPredictor().predict(0x40, 0) is None
