"""Tests for the repro.sampling subsystem: plans, checkpointing,
functional fast-forward, the sampling simulator, and its harness/CLI
integration."""

import inspect

import pytest

from repro.analysis import harness
from repro.common.config import small_core_config
from repro.common.statistics import ConfidenceInterval
from repro.core.ooo_core import OoOCore
from repro.core.simulator import Simulator
from repro.sampling import (
    FunctionalWarmer,
    SamplingPlan,
    SamplingSimulator,
    parse_sampling,
    run_sampled,
)
from repro.workloads.profiles import build_workload, workload_trace


def make_core(workload="leela", length=12_000, config=None, seed=7):
    config = config or small_core_config()
    program = build_workload(workload)
    trace = workload_trace(workload, length)
    return OoOCore(config, program, trace, seed=seed)


# --------------------------------------------------------------------------
# SamplingPlan
# --------------------------------------------------------------------------

class TestSamplingPlan:
    def test_derived_sizes(self):
        plan = SamplingPlan(intervals=4, period=1000, detailed_warmup=100,
                            measure=300)
        assert plan.total_instructions == 4000
        assert plan.detailed_instructions == 1600
        assert plan.functional_instructions == 2400

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(intervals=0)
        with pytest.raises(ValueError):
            SamplingPlan(measure=0)
        with pytest.raises(ValueError):
            SamplingPlan(detailed_warmup=-1)
        with pytest.raises(ValueError):
            SamplingPlan(period=100, detailed_warmup=60, measure=50)
        with pytest.raises(ValueError):
            SamplingPlan(confidence=1.5)

    def test_parse_full_spec(self):
        plan = SamplingPlan.parse(
            "intervals=12,period=4000,warmup=250,measure=900,"
            "confidence=0.99")
        assert plan == SamplingPlan(12, 4000, 250, 900, 0.99)

    def test_parse_defaults_follow_period(self):
        plan = SamplingPlan.parse("intervals=10,period=1000")
        assert plan.intervals == 10
        assert plan.measure == 720
        assert plan.detailed_warmup == 80

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            SamplingPlan.parse("intervals")
        with pytest.raises(ValueError):
            SamplingPlan.parse("bogus=3")

    def test_parse_sampling_none_means_dense(self):
        assert parse_sampling(None) is None
        assert parse_sampling("") is None
        assert parse_sampling("intervals=9").intervals == 9

    def test_for_dense_window_shape(self):
        plan = SamplingPlan.for_dense_window(65_000)
        assert plan.intervals >= 8
        assert plan.total_instructions >= 4 * 65_000
        assert plan.detailed_warmup + plan.measure < plan.period

    def test_scaled_to_trace(self):
        plan = SamplingPlan(intervals=10, period=1000,
                            detailed_warmup=100, measure=700)
        shrunk = plan.scaled_to_trace(5000)
        assert shrunk.intervals == 10
        assert shrunk.total_instructions <= 5000
        assert shrunk.detailed_warmup + shrunk.measure <= shrunk.period
        assert plan.scaled_to_trace(20_000) is plan
        with pytest.raises(ValueError):
            plan.scaled_to_trace(12)

    def test_cache_tag_distinguishes_plans(self):
        a = SamplingPlan(8, 1000, 100, 500)
        b = SamplingPlan(8, 1000, 100, 600)
        c = SamplingPlan(8, 1000, 100, 500, confidence=0.99)
        assert len({a.cache_tag(), b.cache_tag(), c.cache_tag()}) == 3


# --------------------------------------------------------------------------
# Quiesce + snapshot/restore
# --------------------------------------------------------------------------

class TestCheckpointing:
    def test_quiesce_empties_pipeline_at_retire_boundary(self):
        core = make_core()
        core.run(3000)
        retired = core.retired
        core.quiesce()
        assert not core.rob and not core.ftq and not core.inflight
        assert core.retired == retired
        # simulation continues normally after a quiesce
        core.run(6000)
        assert core.retired >= 6000

    def test_snapshot_requires_empty_pipeline(self):
        core = make_core()
        core.run(3000)
        with pytest.raises(RuntimeError):
            core.snapshot()

    def test_snapshot_restore_roundtrip_bit_identical(self):
        """Restoring a checkpoint and re-running N instructions must give
        bit-identical state to the first uninterrupted pass."""
        core = make_core()
        core.run(4000)
        core.quiesce()
        state = core.snapshot()

        core.run(9000)
        reference = (core.now, core.retired, core.stats.state())

        core.restore(state)
        core.run(9000)
        replay = (core.now, core.retired, core.stats.state())
        assert replay == reference

    def test_restore_is_deep(self):
        """Mutating the core after snapshot must not corrupt the saved
        state (snapshots are plain copied data, not aliases)."""
        core = make_core()
        core.run(2000)
        core.quiesce()
        state = core.snapshot()
        cycles_at_snap = core.now
        core.run(5000)
        core.restore(state)
        assert core.now == cycles_at_snap


# --------------------------------------------------------------------------
# FunctionalWarmer
# --------------------------------------------------------------------------

class TestFunctionalWarmer:
    def test_requires_quiesced_core(self):
        core = make_core()
        core.run(1000)
        with pytest.raises(RuntimeError):
            FunctionalWarmer(core).advance(100)

    def test_advances_retire_point_without_cycles(self):
        core = make_core()
        core.run(1000)
        core.quiesce()
        cycles = core.now
        retired = core.retired
        moved = FunctionalWarmer(core).advance(2500)
        assert moved == 2500
        assert core.retired == retired + 2500
        assert core.now == cycles

    def test_advance_clamps_to_trace_end(self):
        core = make_core(length=2000)
        core.quiesce()
        moved = FunctionalWarmer(core).advance(10_000)
        assert moved <= 2000
        assert core.retired == 2000

    def test_trains_predictor_state(self):
        """Functional warmup must train the predictor like detailed
        execution does: mispredicts over instructions 8000..12000 after a
        fast-forward should closely track a dense run's count for the
        same window (and be far below the untrained rate there)."""
        config = small_core_config()
        warm = make_core(config=config)
        warm.quiesce()
        FunctionalWarmer(warm).advance(8000)
        warm.run(12_000)
        warm_mis = warm.stats.get("cond_mispredicts")

        dense = make_core(config=config)
        dense.run(8000)
        at_8k = dense.stats.get("cond_mispredicts")
        dense.run(12_000)
        dense_mis = dense.stats.get("cond_mispredicts") - at_8k
        untrained_mis = at_8k  # window 0..8000 includes the cold start

        assert abs(warm_mis - dense_mis) / max(1, dense_mis) < 0.25
        assert warm_mis < untrained_mis

    def test_passes_the_history_folds_to_the_predictor(self):
        """Outside the wrong-path walk, every predict/update the warmer
        makes carries the folds the core's history holds at that call, so
        the predictor never recomputes them for the trace's branches."""
        core = make_core()
        core.quiesce()
        warmer = FunctionalWarmer(core)
        predictor = core.branch_unit.predictor
        hist = core.fetch.history
        assert hist.folds is not None
        seen = {"predict": 0, "update": 0, "walks": 0, "walk_predicts": 0}
        walking = []

        def spy(name):
            method = getattr(predictor, name)
            signature = inspect.signature(method)

            def call(*args, **kwargs):
                if walking:
                    seen["walk_predicts"] += 1
                else:
                    folds = signature.bind(*args, **kwargs).arguments.get(
                        "folds")
                    assert folds is hist.folds, (name, args)
                    seen[name] += 1
                return method(*args, **kwargs)
            return call

        walk = warmer._walk_wrong_path

        def walk_spy(*args):
            seen["walks"] += 1
            walking.append(True)
            try:
                return walk(*args)
            finally:
                walking.pop()

        predictor.predict = spy("predict")
        predictor.update = spy("update")
        warmer._walk_wrong_path = walk_spy
        assert warmer.advance(4000) == 4000
        assert seen["predict"] == seen["update"] > 100
        assert seen["walks"] > 0 and seen["walk_predicts"] > 0


# --------------------------------------------------------------------------
# SamplingSimulator
# --------------------------------------------------------------------------

class TestSamplingSimulator:
    PLAN = SamplingPlan(intervals=6, period=2000, detailed_warmup=160,
                        measure=1440)

    def test_sampled_result_shape(self):
        result = run_sampled("leela", self.PLAN)
        assert result.sampled
        assert len(result.interval_ipcs) == self.PLAN.intervals
        assert isinstance(result.ipc_ci, ConfidenceInterval)
        assert result.ipc_ci.samples == self.PLAN.intervals
        assert result.ipc_ci.low <= result.ipc <= result.ipc_ci.high
        assert result.counters["sampling_intervals"] == self.PLAN.intervals
        # detailed count may overshoot by < retire-width per interval
        assert 0 < result.counters["sampling_detailed_instructions"] \
            <= self.PLAN.detailed_instructions * 1.05
        assert result.counters["sampling_functional_instructions"] > 0

    def test_deterministic(self):
        a = run_sampled("deepsjeng", self.PLAN, seed=11)
        b = run_sampled("deepsjeng", self.PLAN, seed=11)
        assert a.ipc == b.ipc
        assert a.interval_ipcs == b.interval_ipcs

    def test_tracks_dense_ipc(self):
        """Even a short sampled run should land in the right IPC
        neighbourhood of a dense run over the same trace."""
        plan = SamplingPlan(intervals=8, period=2000, detailed_warmup=160,
                            measure=1440)
        config = small_core_config()
        sampled = SamplingSimulator(config).run("xalancbmk", plan)
        dense = Simulator(config).run(
            "xalancbmk", warmup=0, measure=plan.total_instructions)
        assert abs(sampled.ipc - dense.ipc) / dense.ipc < 0.15

    def test_dense_result_not_sampled(self):
        dense = Simulator(small_core_config()).run("leela", warmup=500,
                                                   measure=2000)
        assert not dense.sampled
        assert dense.ipc_ci is None


# --------------------------------------------------------------------------
# Harness integration
# --------------------------------------------------------------------------

class TestHarnessIntegration:
    PLAN = SamplingPlan(intervals=4, period=1500, detailed_warmup=120,
                        measure=1080)

    def test_result_key_includes_plan(self):
        config = small_core_config()
        dense = harness.result_key("leela", config, 100, 200, 1)
        sampled = harness.result_key("leela", config, 100, 200, 1,
                                     self.PLAN)
        assert dense != sampled
        assert self.PLAN.cache_tag() in sampled
        # dense keys must be unchanged by the sampling feature
        assert dense == f"v{harness.CACHE_SCHEMA_VERSION}-leela-100-200-1-" \
                        f"{harness.config_signature(config)}"

    def test_serialize_roundtrip_preserves_sampling_fields(self):
        result = run_sampled("leela", self.PLAN)
        back = harness.deserialize_result(harness.serialize_result(result))
        assert back.interval_ipcs == result.interval_ipcs
        assert back.ipc_ci == result.ipc_ci
        assert back.sampled

    def test_run_cached_sampled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = small_core_config()
        first = harness.run_cached("leela", config, seed=5,
                                   sampling=self.PLAN)
        second = harness.run_cached("leela", config, seed=5,
                                    sampling=self.PLAN)
        assert first.sampled and second.sampled
        assert second.ipc == first.ipc
        assert second.interval_ipcs == first.interval_ipcs
        # exactly one sampled cache entry was written
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_ambient_sampling_context(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = small_core_config()
        assert harness.current_sampling() is None
        with harness.using_sampling(self.PLAN):
            assert harness.current_sampling() == self.PLAN
            ambient = harness.run_cached("leela", config, seed=5)
            # explicit dense still possible by nesting a None plan
            with harness.using_sampling(None):
                assert harness.current_sampling() is None
        assert harness.current_sampling() is None
        assert ambient.sampled
        explicit = harness.run_cached("leela", config, seed=5,
                                      sampling=self.PLAN)
        assert explicit.ipc == ambient.ipc
