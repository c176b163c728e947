"""End-to-end core tests: baseline behaviour, recovery invariants, APF
restore correctness, determinism, and the relationships the paper's
mechanism depends on."""

import pytest

from repro.common.config import (
    AlternatePathMode,
    FetchScheme,
    small_core_config,
)
from repro.core.ooo_core import OoOCore
from repro.core.simulator import Simulator, run_benchmark
from repro.workloads.emulator import Emulator
from repro.workloads.profiles import build_workload, workload_trace
from repro.isa.opcodes import Op
from repro.workloads.program import ProgramBuilder


WARMUP = 4_000
MEASURE = 8_000
TOTAL = WARMUP + MEASURE


def run_core(workload="leela", config=None, total=TOTAL, warmup=WARMUP):
    config = config or small_core_config()
    program = build_workload(workload)
    trace = workload_trace(workload, total)
    core = OoOCore(config, program, trace, seed=5)
    core.run(total, warmup=warmup)
    return core


class TestBaseline:
    def test_retires_exactly_target(self):
        core = run_core()
        assert core.retired == TOTAL

    def test_ipc_positive_and_bounded(self):
        core = run_core()
        assert 0.05 < core.ipc() <= core.config.backend.retire_width

    def test_only_correct_path_retires(self):
        """Every retired uop must carry a valid trace index — wrong-path
        uops are always squashed before retirement."""
        config = small_core_config()
        program = build_workload("deepsjeng")
        trace = workload_trace("deepsjeng", TOTAL)
        core = OoOCore(config, program, trace, seed=5)

        retired_trace_indices = []
        original_retire = core._retire

        def checked_retire():
            before = list(core.rob)[:core.config.backend.retire_width]
            count_before = core.retired
            original_retire()
            retired = core.retired - count_before
            for du in before[:retired]:
                retired_trace_indices.append(du.trace_index)
        core._retire = checked_retire
        core.run(TOTAL)
        assert retired_trace_indices
        assert all(idx >= 0 for idx in retired_trace_indices)
        # retirement is in trace order
        assert retired_trace_indices == sorted(retired_trace_indices)

    def test_mispredicts_recorded(self):
        core = run_core("leela")
        assert core.measured("cond_mispredicts") > 0
        assert core.measured("cond_branches") \
            > core.measured("cond_mispredicts")

    def test_deterministic(self):
        a = run_core("xz")
        b = run_core("xz")
        assert a.now == b.now
        assert a.stats.snapshot() == b.stats.snapshot()

    def test_max_cycles_cap(self):
        config = small_core_config()
        program = build_workload("xz")
        trace = workload_trace("xz", TOTAL)
        core = OoOCore(config, program, trace, seed=5)
        core.run(TOTAL, max_cycles=100)
        assert core.now == 100
        assert core.retired < TOTAL


class TestMispredictionPenalty:
    def test_higher_mpki_means_lower_ipc(self):
        """Within one workload, disabling the predictor's tables is not
        possible, but across workloads with similar structure, higher MPKI
        must cost cycles: leela (high MPKI) has lower IPC than x264."""
        leela = run_core("leela")
        x264 = run_core("x264")
        assert leela.branch_mpki() > x264.branch_mpki()
        assert leela.ipc() < x264.ipc()

    def test_deeper_frontend_hurts_high_mpki_more(self):
        """The re-fill penalty scales with frontend depth (Fig. 12b's
        premise)."""
        shallow = small_core_config()
        deep = small_core_config().with_frontend(decode_stages=10)
        ipc_shallow = run_core("leela", shallow).ipc()
        ipc_deep = run_core("leela", deep).ipc()
        assert ipc_deep < ipc_shallow


class TestAPFEndToEnd:
    def test_apf_speeds_up_high_mpki_workload(self):
        base = run_core("leela")
        apf = run_core("leela", small_core_config().with_apf())
        assert apf.ipc() > base.ipc()

    def test_restores_happen_and_histogram_populated(self):
        core = run_core("leela", small_core_config().with_apf())
        assert core.measured("apf_restores") > 0
        hist = core.stats.histogram("refill_saved")
        assert hist.total() > 0
        assert any(bucket > 0 for bucket in hist.buckets)

    def test_restored_uops_validated_against_trace(self):
        """Restored instructions retire as correct-path work: retired count
        still hits the target exactly, and the run stays architecturally
        in-order (guaranteed by the retire assertion test above — here we
        check it under APF restores)."""
        config = small_core_config().with_apf()
        program = build_workload("leela")
        trace = workload_trace("leela", TOTAL)
        core = OoOCore(config, program, trace, seed=5)
        core.run(TOTAL)
        assert core.retired == TOTAL
        assert core.measured("apf_restores") > 0

    def test_apf_deterministic(self):
        cfg = small_core_config().with_apf()
        a = run_core("deepsjeng", cfg)
        b = run_core("deepsjeng", cfg)
        assert a.now == b.now

    def test_dualport_at_least_as_fast_as_banked(self):
        banked = run_core(
            "tc", small_core_config().with_apf(
                fetch_scheme=FetchScheme.BANKED))
        dualport = run_core(
            "tc", small_core_config().with_apf(
                fetch_scheme=FetchScheme.DUAL_PORT))
        assert dualport.measured("apf_bank_conflict_cycles") == 0
        assert banked.measured("apf_bank_conflict_cycles") > 0

    def test_more_buffers_do_not_reduce_restores(self):
        few = run_core("leela", small_core_config().with_apf(num_buffers=1))
        many = run_core("leela", small_core_config().with_apf(num_buffers=8))
        assert many.measured("apf_restores") \
            >= few.measured("apf_restores") - 5

    def test_zero_depth_equivalent_baseline(self):
        """An APF pipeline that can't hold anything gives no restores."""
        cfg = small_core_config().with_apf(pipeline_depth=0,
                                           buffer_capacity_uops=0)
        core = run_core("leela", cfg)
        assert core.measured("apf_restores") == 0


class TestPickledConfig:
    """A config sent to a spawned worker arrives through pickle, with
    equal but distinct strings; the core must simulate it identically."""

    @pytest.mark.parametrize("scheme", [FetchScheme.BANKED,
                                        FetchScheme.TIME_SHARED,
                                        FetchScheme.DUAL_PORT])
    def test_round_tripped_config_simulates_identically(self, scheme):
        import pickle
        cfg = small_core_config().with_apf(fetch_scheme=scheme)
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == cfg
        assert copy.apf.fetch_scheme is not scheme
        direct = run_core("perlbench", cfg, total=6_000, warmup=2_000)
        pickled = run_core("perlbench", copy, total=6_000, warmup=2_000)
        assert pickled.now == direct.now
        assert pickled.stats.snapshot() == direct.stats.snapshot()


class TestDPIPEndToEnd:
    def test_dpip_runs_and_restores(self):
        cfg = small_core_config().with_apf(
            mode=AlternatePathMode.DPIP, pipeline_depth=15,
            fetch_scheme=FetchScheme.TIME_SHARED,
            timeshare_main_cycles=1, timeshare_alt_cycles=1,
            num_buffers=0)
        core = run_core("leela", cfg)
        assert core.retired == TOTAL
        assert core.measured("apf_restores") > 0

    def test_apf_covers_more_than_dpip(self):
        """APF's buffers + intermediate-branch targeting give it more
        restore opportunities than one-at-a-time DPIP (Section IV)."""
        apf_cfg = small_core_config().with_apf()
        dpip_cfg = small_core_config().with_apf(
            mode=AlternatePathMode.DPIP, pipeline_depth=15, num_buffers=0)
        apf = run_core("leela", apf_cfg)
        dpip = run_core("leela", dpip_cfg)
        assert apf.measured("apf_restores") > dpip.measured("apf_restores")


class TestSimulatorFacade:
    def test_run_benchmark_returns_metrics(self):
        result = run_benchmark("xz", warmup=2_000, measure=4_000)
        assert result.workload == "xz"
        assert result.instructions == 4_000
        assert result.ipc > 0
        assert result.cycles > 0
        assert result.counters

    def test_speedup_over(self):
        base = run_benchmark("leela", warmup=2_000, measure=4_000)
        apf = run_benchmark("leela", config=small_core_config().with_apf(),
                            warmup=2_000, measure=4_000)
        assert apf.speedup_over(base) == pytest.approx(
            apf.ipc / base.ipc)

    def test_table2_metrics_range(self):
        result = run_benchmark("leela", warmup=4_000, measure=8_000)
        assert 0.0 <= result.specificity("h2p") <= 1.0
        assert 0.0 <= result.wastage("h2p") <= 1.0
        assert 0.0 <= result.specificity("lowconf") <= 1.0

    def test_simulator_accepts_custom_trace(self):
        b = ProgramBuilder()
        b.label("entry")
        b.movi(1, 100)
        loop = b.label("loop")
        b.alu(Op.ADD, 2, 2, 2)
        b.emit(Op.ADDI, dest=1, src1=1, imm=-1)
        b.branch(Op.BNEZ, loop, src1=1)
        b.jump("entry")
        program = b.finalize(entry_label="entry")
        trace = Emulator(program).run(3_000)
        sim = Simulator(small_core_config())
        result = sim.run("custom", warmup=500, measure=2_000,
                         program=program, trace=trace)
        assert result.instructions == 2_000
