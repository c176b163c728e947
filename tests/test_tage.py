"""TAGE-SC-L predictor tests: learning, confidence, loop prediction."""

import pytest

from repro.branch.history import SpeculativeHistory
from repro.branch.tage import CONF_HIGH, CONF_LOW, TageSCL, _geometric_lengths
from repro.common.config import (TageConfig, paper_core_config,
                                 small_core_config)
from repro.common.rng import DeterministicRng


def make_predictor(**overrides):
    cfg = TageConfig(num_tables=5, table_log_size=8, bimodal_log_size=10,
                     max_history=64, sc_log_size=7, loop_log_size=6,
                     **overrides)
    return TageSCL(cfg, seed=99)


def train(predictor, sequence, pc=0x4000, repeats=1):
    """Feed (outcome) sequence through predict/update; return accuracy."""
    hist = SpeculativeHistory(64)
    correct = total = 0
    for _ in range(repeats):
        for taken in sequence:
            pred = predictor.predict(pc, hist.ghr, hist.path)
            correct += pred.taken == taken
            total += 1
            predictor.update(pc, hist.ghr, taken, hist.path)
            hist.push(taken, pc)
    return correct / total


class TestGeometricLengths:
    def test_monotone_strictly_increasing(self):
        cfg = TageConfig(num_tables=8, min_history=4, max_history=256)
        lengths = _geometric_lengths(cfg)
        assert len(lengths) == 8
        assert all(b > a for a, b in zip(lengths, lengths[1:]))
        assert lengths[0] == 4
        assert lengths[-1] == 256

    def test_single_table(self):
        cfg = TageConfig(num_tables=1, min_history=6)
        assert _geometric_lengths(cfg) == [6]

    @pytest.mark.parametrize("fields, named", [
        (dict(num_tables=6, min_history=4, max_history=8), "num_tables"),
        (dict(num_tables=10, min_history=4, max_history=8), "num_tables"),
        (dict(min_history=0), "min_history"),
        (dict(num_tables=0), "num_tables"),
        (dict(min_history=9, max_history=8), "max_history"),
    ])
    def test_refuses_lengths_the_history_cannot_hold(self, fields, named):
        with pytest.raises(ValueError, match=rf"^TageConfig\.{named} "):
            _geometric_lengths(TageConfig(**fields))
        with pytest.raises(ValueError, match=rf"^TageConfig\.{named} "):
            TageSCL(TageConfig(**fields))

    def test_valid_geometries_span_the_history_exactly(self):
        """Every valid geometry's lengths start at ``min_history``, rise
        strictly and end at ``max_history`` (one table: ``min_history``),
        so none outgrows the ``max_history``-bit history register."""
        for low in range(1, 20):
            for high in set(range(low, low + 24)) | {64, 128, 256, 299}:
                for tables in range(1, min(20, high - low + 1) + 1):
                    cfg = TageConfig(num_tables=tables, min_history=low,
                                     max_history=high)
                    lengths = _geometric_lengths(cfg)
                    assert len(lengths) == tables, cfg
                    assert lengths[0] == low, cfg
                    assert lengths[-1] == (high if tables > 1 else low), cfg
                    assert all(b > a for a, b in zip(lengths, lengths[1:])), \
                        cfg

    def test_scale_configs_keep_their_lengths(self):
        assert _geometric_lengths(small_core_config().tage) == \
            [4, 8, 16, 32, 64, 128]
        assert _geometric_lengths(paper_core_config().tage) == \
            [4, 7, 13, 24, 43, 78, 141, 256]


class TestLearning:
    def test_always_taken_branch(self):
        predictor = make_predictor()
        acc = train(predictor, [True] * 50)
        assert acc > 0.9

    def test_alternating_pattern_learned(self):
        predictor = make_predictor()
        # warm up then measure: T N T N ... is trivially history-predictable
        train(predictor, [True, False] * 40)
        acc = train(predictor, [True, False] * 40)
        assert acc > 0.95

    def test_period_four_pattern_learned(self):
        predictor = make_predictor()
        pattern = [True, True, True, False] * 30
        train(predictor, pattern, repeats=3)
        acc = train(predictor, pattern)
        assert acc > 0.9

    def test_correlated_branches_via_history(self):
        """Branch B repeats branch A's outcome: perfectly predictable from
        one bit of global history."""
        predictor = make_predictor()
        rng = DeterministicRng(5)
        hist = SpeculativeHistory(64)
        correct_b = total_b = 0
        for round_number in range(400):
            outcome = rng.chance(0.5)
            for pc, measure in ((0x100, False), (0x200, True)):
                pred = predictor.predict(pc, hist.ghr, hist.path)
                if measure and round_number > 100:
                    total_b += 1
                    correct_b += pred.taken == outcome
                predictor.update(pc, hist.ghr, outcome, hist.path)
                hist.push(outcome, pc)
        assert correct_b / total_b > 0.9

    def test_random_branch_not_learnable(self):
        predictor = make_predictor()
        rng = DeterministicRng(17)
        seq = [rng.chance(0.5) for _ in range(600)]
        acc = train(predictor, seq)
        assert acc < 0.72


class TestConfidence:
    def test_confident_after_training(self):
        predictor = make_predictor()
        train(predictor, [True] * 100)
        hist = SpeculativeHistory(64)
        # replay some history so the provider entry is hot
        for _ in range(8):
            predictor.predict(0x4000, hist.ghr, hist.path)
            predictor.update(0x4000, hist.ghr, True, hist.path)
            hist.push(True, 0x4000)
        pred = predictor.predict(0x4000, hist.ghr, hist.path)
        assert pred.taken
        assert pred.confidence >= 1

    def test_low_confidence_exists_for_noise(self):
        predictor = make_predictor()
        rng = DeterministicRng(23)
        hist = SpeculativeHistory(64)
        low_seen = 0
        for _ in range(500):
            taken = rng.chance(0.5)
            pred = predictor.predict(0x888, hist.ghr, hist.path)
            low_seen += pred.confidence == CONF_LOW
            predictor.update(0x888, hist.ghr, taken, hist.path)
            hist.push(taken, 0x888)
        assert low_seen > 50

    def test_confidence_levels_are_ordered_constants(self):
        assert CONF_LOW < CONF_HIGH


class TestLoopPredictor:
    def test_constant_trip_loop_perfect(self):
        predictor = make_predictor()
        hist = SpeculativeHistory(64)
        rng = DeterministicRng(1)
        mispredicts = 0
        measured = 0
        for rep in range(200):
            for iteration in range(17):
                taken = iteration < 16
                pred = predictor.predict(0x700, hist.ghr, hist.path)
                if rep >= 60:
                    measured += 1
                    mispredicts += pred.taken != taken
                predictor.update(0x700, hist.ghr, taken, hist.path,
                                 backward=True)
                hist.push(taken, 0x700)
                # noise branches pollute history so TAGE alone cannot learn
                for k in range(4):
                    noise_pc = 0x900 + 4 * k
                    noise = rng.chance(0.5)
                    predictor.update(noise_pc, hist.ghr, noise, hist.path)
                    hist.push(noise, noise_pc)
        assert mispredicts / measured < 0.02

    def test_loop_predictor_disabled(self):
        predictor = make_predictor(enable_loop_predictor=False)
        # same training must not crash and still mostly predict taken
        acc = train(predictor, ([True] * 16 + [False]) * 20)
        assert acc > 0.8

    def test_forward_branches_do_not_train_loop(self):
        predictor = make_predictor()
        hist = SpeculativeHistory(64)
        for _ in range(100):
            predictor.update(0x700, hist.ghr, True, hist.path,
                             backward=False)
        entry = predictor._loop_entry(0x700)
        assert entry.tag != 0x700


class TestAllocationAndStorage:
    def test_storage_bits_positive_and_scales(self):
        small = make_predictor()
        big = TageSCL(TageConfig(num_tables=5, table_log_size=10), seed=1)
        assert 0 < small.storage_bits() < big.storage_bits()

    def test_mispredicts_trigger_allocation(self):
        predictor = make_predictor()
        hist = SpeculativeHistory(64)
        # drive mispredictions with an alternating branch
        for i in range(64):
            taken = bool(i & 1)
            predictor.update(0x123, hist.ghr, taken, hist.path)
            hist.push(taken, 0x123)
        allocated = sum(tag != -1 for table in predictor._tags
                        for tag in table)
        assert allocated > 0

    def test_update_is_deterministic(self):
        a, b = make_predictor(), make_predictor()
        seq = [(0x10 * i % 0x80, bool(i % 3)) for i in range(300)]
        hist_a, hist_b = SpeculativeHistory(64), SpeculativeHistory(64)
        out_a, out_b = [], []
        for pc, taken in seq:
            out_a.append(a.predict(pc, hist_a.ghr, hist_a.path).taken)
            a.update(pc, hist_a.ghr, taken, hist_a.path)
            hist_a.push(taken, pc)
            out_b.append(b.predict(pc, hist_b.ghr, hist_b.path).taken)
            b.update(pc, hist_b.ghr, taken, hist_b.path)
            hist_b.push(taken, pc)
        assert out_a == out_b
