"""Tests for the benchmark harness helpers: configs, the CLI registry,
and the crash-safe result cache (atomic writes, corrupt-entry recovery,
canonical config signatures)."""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from hypothesis import given, settings

sys.path.insert(0, str(Path(__file__).parents[1] / "benchmarks"))

import bench_common  # noqa: E402
from repro.analysis import harness  # noqa: E402
from repro.common.config import (  # noqa: E402
    AlternatePathMode,
    FetchScheme,
    paper_core_config,
    small_core_config,
)
from tests.test_loop_equivalence import FUZZ_CONFIGS  # noqa: E402


class TestConfigs:
    def test_baseline_has_no_apf(self):
        assert not bench_common.baseline_config().apf.enabled

    def test_apf_config_is_paper_design_point(self):
        cfg = bench_common.apf_config()
        assert cfg.apf.enabled
        assert cfg.apf.pipeline_depth == 13
        assert cfg.apf.num_buffers == 4
        assert cfg.apf.fetch_scheme == FetchScheme.BANKED
        assert cfg.apf.use_tage_confidence

    def test_dpip_fig8_is_timeshared_17(self):
        cfg = bench_common.dpip_fig8_config()
        assert cfg.apf.mode == AlternatePathMode.DPIP
        assert cfg.apf.pipeline_depth == 17
        assert cfg.apf.fetch_scheme == FetchScheme.TIME_SHARED
        assert cfg.apf.timeshare_main_cycles == 1
        assert cfg.apf.num_buffers == 0

    def test_dpip_parallel_uses_banked(self):
        cfg = bench_common.dpip_parallel_config(15)
        assert cfg.apf.fetch_scheme == FetchScheme.BANKED
        assert cfg.apf.pipeline_depth == 15

    def test_banked_baseline(self):
        cfg = bench_common.banked_baseline_config(4)
        assert cfg.baseline_tage_banks == 4
        assert not cfg.apf.enabled

    def test_wide_core_scales_everything(self):
        cfg = bench_common.wide_core_config()
        assert cfg.frontend.width == 16
        assert cfg.frontend.rename_stages == 3     # the +1 rename stage
        assert cfg.backend.allocate_width == 16
        assert cfg.backend.retire_width == 16

    def test_frontend_depth_config_tracks_pre_rat(self):
        base = bench_common.frontend_depth_config(1, apf=False)
        assert base.frontend.depth == 12
        apf = bench_common.frontend_depth_config(1, apf=True)
        assert apf.apf.pipeline_depth == apf.frontend.pre_rat_depth == 10
        assert apf.apf.buffer_capacity_uops == 80

    def test_save_result_writes_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench_common, "RESULTS_DIR", tmp_path)
        bench_common.save_result("unit", "hello table")
        assert (tmp_path / "unit.txt").read_text() == "hello table\n"
        assert "hello table" in capsys.readouterr().out


class TestBenchRegistry:
    def test_every_bench_module_registers_an_entry(self):
        registry = bench_common.load_benchmarks()
        modules = {p.stem for p in
                   (Path(__file__).parents[1] / "benchmarks")
                   .glob("bench_*.py")} - {"bench_common"}
        assert len(registry) == len(modules)
        assert "fig08_main_result" in registry
        assert "table4_bank_conflicts" in registry
        assert all(callable(fn) for fn in registry.values())


class TestCacheIntegrity:
    def test_run_cached_roundtrip_and_corrupt_recovery(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cfg = small_core_config()
        first = harness.run_cached("xz", cfg, warmup=400, measure=400)
        [entry] = list(tmp_path.glob("*.json"))
        intact = entry.read_bytes()

        second = harness.run_cached("xz", cfg, warmup=400, measure=400)
        assert harness.serialize_result(second) \
            == harness.serialize_result(first)

        # a truncated entry is a miss: re-run and overwrite, don't raise
        entry.write_bytes(intact[:19])
        recovered = harness.run_cached("xz", cfg, warmup=400, measure=400)
        assert harness.serialize_result(recovered) \
            == harness.serialize_result(first)
        assert entry.read_bytes() == intact

    def test_cache_write_is_atomic_no_temp_left(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        harness.run_cached("xz", small_core_config(),
                           warmup=400, measure=400)
        assert not list(tmp_path.glob("*.tmp*"))

    def test_load_cache_payload_classifies_misses(self, tmp_path):
        missing = tmp_path / "missing.json"
        assert harness.load_cache_payload(missing) == (None, False)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert harness.load_cache_payload(bad) == (None, True)
        wrong_shape = tmp_path / "shape.json"
        wrong_shape.write_text(json.dumps([1, 2, 3]))
        assert harness.load_cache_payload(wrong_shape) == (None, True)

    def test_keys_carry_schema_version_prefix(self):
        key = harness.result_key("xz", small_core_config(), 1, 2, 3)
        assert key.startswith(f"v{harness.CACHE_SCHEMA_VERSION}-xz-1-2-3-")


def asdict_signature(config):
    """The signature from ``dataclasses.asdict``: the reference form."""
    return hashlib.sha256(json.dumps(
        dataclasses.asdict(config), sort_keys=True,
        separators=(",", ":")).encode()).hexdigest()[:20]


class TestConfigSignature:
    def test_signature_survives_field_reordering(self):
        @dataclasses.dataclass(frozen=True)
        class Original:
            depth: int = 13
            buffers: int = 4

        @dataclasses.dataclass(frozen=True)
        class Reordered:
            buffers: int = 4
            depth: int = 13

        assert harness.config_signature(Original()) \
            == harness.config_signature(Reordered())
        # repr-based hashing (the old bug) would differ here
        assert repr(Original()) != repr(Reordered())

    def test_signature_changes_with_any_field_value(self):
        base = small_core_config()
        assert harness.config_signature(base) \
            != harness.config_signature(base.with_apf())
        assert harness.config_signature(base) \
            != harness.config_signature(
                dataclasses.replace(base, ras_entries=33))

    def test_signature_ignores_repr_formatting(self):
        cfg = small_core_config()
        assert harness.config_signature(cfg) == asdict_signature(cfg)

    def test_signature_is_the_asdict_form(self):
        """The small and paper base, APF and DPIP configs all sign as
        their ``asdict`` form."""
        for scale in (small_core_config(), paper_core_config()):
            for cfg in (scale, scale.with_apf(),
                        scale.with_apf(mode=AlternatePathMode.DPIP,
                                       num_buffers=0)):
                assert harness.config_signature(cfg) \
                    == asdict_signature(cfg), cfg

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(config=FUZZ_CONFIGS)
    def test_fuzzed_signatures_are_the_asdict_form(self, config):
        assert harness.config_signature(config) == asdict_signature(config)


class TestDepthSweepHelpers:
    def test_config_for_depth_dispatch(self):
        import bench_fig09_depth_sweep as fig09
        apf = fig09.config_for_depth(11)
        assert apf.apf.mode == AlternatePathMode.APF
        assert apf.apf.buffer_capacity_uops == 88
        dpip = fig09.config_for_depth(15)
        assert dpip.apf.mode == AlternatePathMode.DPIP


class TestTable2Aggregation:
    def test_aggregate_sums_counters(self):
        import bench_table2_h2p_quality as t2
        from repro.core.simulator import SimResult
        from repro.common.statistics import Histogram

        def result(mis, marked, marked_mis):
            return SimResult(
                workload="x", instructions=1, cycles=1, ipc=1.0,
                branch_mpki=0.0, cond_branches=10, cond_mispredicts=mis,
                counters={"h2p_marked": marked,
                          "h2p_marked_mis": marked_mis},
                refill_saved=Histogram())
        totals = t2.aggregate({"a": result(4, 10, 3),
                               "b": result(6, 20, 5)})
        assert totals["mis"] == 10
        assert totals["h2p_marked"] == 30
        assert totals["h2p_marked_mis"] == 8
