"""Randomized TAGE-SC-L fold equivalence.

``TageSCL`` has one lookup, which reads a ``(ghr_fold_values,
path_fold_values)`` pair. The core, APF shadow fetch and the sampling
``FunctionalWarmer`` hand ``predict``/``update`` the folds their attached
``SpeculativeHistory`` maintains per push; a caller that passes none (the
warmer's wrong-path walk, standalone use) gets them recomputed from the
raw registers by ``fold_xor``. Maintained and recomputed folds must give
bit-identical results on *any* predict/update sequence: every Prediction
triple and the full storage snapshot, including the allocation RNG
state. A snapshot/restore round-trip mid-sequence (the sampling
checkpoint path) must not disturb either.

The sequences here are randomized but seeded, so a failure is a
reproducible counterexample, not a flake.
"""

import random

import pytest

from repro.branch.history import SpeculativeHistory
from repro.branch.tage import TageSCL
from repro.common.config import TageConfig

CONFIGS = {
    "full": dict(),
    "no_sc": dict(enable_sc=False),
    "no_loop": dict(enable_loop_predictor=False),
    "tage_only": dict(enable_sc=False, enable_loop_predictor=False),
}


def make_predictor(key) -> TageSCL:
    cfg = TageConfig(num_tables=5, table_log_size=7, bimodal_log_size=9,
                     max_history=64, sc_log_size=6, loop_log_size=5,
                     **CONFIGS[key])
    return TageSCL(cfg, seed=99)


def make_history(predictor, use_folds: bool) -> SpeculativeHistory:
    hist = SpeculativeHistory(64)
    if use_folds:
        ghr_specs, path_specs = predictor.fold_specs()
        hist.attach_folds(ghr_specs, path_specs)
    return hist


def stimulus(seed: int, steps: int):
    """A seeded branch stream: few PCs, mixed biases, some loop-shaped."""
    rng = random.Random(seed)
    pcs = [rng.randrange(0x1000, 0x40000) & ~3 for _ in range(24)]
    bias = {pc: rng.choice((0.05, 0.3, 0.5, 0.8, 0.97)) for pc in pcs}
    backward = {pc: rng.random() < 0.3 for pc in pcs}
    trips = {pc: rng.randrange(3, 9) for pc in pcs}
    count = dict.fromkeys(pcs, 0)
    for _ in range(steps):
        pc = rng.choice(pcs)
        if backward[pc]:
            # loop shape: taken trip-1 times, then one not-taken
            count[pc] += 1
            taken = count[pc] % trips[pc] != 0
        else:
            taken = rng.random() < bias[pc]
        yield pc, taken, backward[pc]


def drive(predictor, seed: int, steps: int, use_folds: bool,
          roundtrip_every: int = 0):
    """Run a predict/update walk; returns the observed prediction trail.

    ``use_folds`` passes the attached history's maintained folds, else
    none (the predictor recomputes them). ``roundtrip_every > 0``
    additionally snapshot/restores the predictor into itself every
    that-many steps, exercising the save and restore paths mid-sequence."""
    hist = make_history(predictor, use_folds)
    trail = []
    for i, (pc, taken, backward) in enumerate(stimulus(seed, steps)):
        folds = hist.folds if use_folds else None
        pred = predictor.predict(pc, hist.ghr, hist.path, folds=folds)
        trail.append((pred.taken, pred.confidence, pred.provider))
        predictor.update(pc, hist.ghr, taken, hist.path,
                         backward=backward, folds=folds)
        hist.push(taken, pc)
        if roundtrip_every and i % roundtrip_every == roundtrip_every - 1:
            predictor.restore(predictor.snapshot())
    return trail


@pytest.mark.parametrize("config_key", sorted(CONFIGS))
class TestRandomizedEquivalence:
    def test_folds_and_plain_paths_identical(self, config_key):
        plain, folded = make_predictor(config_key), make_predictor(config_key)
        assert drive(plain, seed=1234, steps=1_500, use_folds=False) \
            == drive(folded, seed=1234, steps=1_500, use_folds=True)
        assert plain.snapshot() == folded.snapshot()

    @pytest.mark.parametrize("use_folds", [False, True],
                             ids=["no_folds", "folds"])
    def test_roundtrips_do_not_disturb_state(self, config_key, use_folds):
        """Snapshot/restore mid-sequence is a no-op on either path."""
        tripped, plain = make_predictor(config_key), make_predictor(config_key)
        assert drive(tripped, seed=71, steps=900, use_folds=use_folds,
                     roundtrip_every=113) \
            == drive(plain, seed=71, steps=900, use_folds=use_folds)
        assert tripped.snapshot() == plain.snapshot()

    def test_usefulness_ages_when_the_tick_wraps(self, config_key):
        """Every 2**14 allocations, every usefulness counter ages by one."""
        predictor = make_predictor(config_key)
        drive(predictor, seed=1234, steps=1_500, use_folds=False)
        # this stream leaves almost every counter at 0, so spread seeded
        # values over the whole range before the wrap
        rng = random.Random(3)
        state = predictor.snapshot()
        top = predictor._useful_max
        state["useful"] = [[rng.choice((0, 0, 1, top)) for _ in row]
                           for row in state["useful"]]
        predictor.restore(state)
        before = state["useful"]
        # a PC with no tagged hit and a free slot: the update's only
        # usefulness writes are then the allocation's own
        tables = range(predictor.config.num_tables)
        folds = predictor._fold_values(0, 0)
        for pc in range(0x80000, 0x90000, 4):
            taken, _, _, provider, _, _ = predictor._tage_predict(pc, folds)
            if provider < 0 and any(
                    before[t][predictor._index(t, pc, folds)] == 0
                    for t in tables):
                break
        predictor._tick = (1 << 14) - 1
        predictor.update(pc, 0, not taken, 0)      # one allocating mispredict
        assert predictor._tick == 0
        after = predictor.snapshot()["useful"]
        for row_before, row_after in zip(before, after):
            for u, v in zip(row_before, row_after):
                assert v == (u - 1 if u > 0 else 0)
