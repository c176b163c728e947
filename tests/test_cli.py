"""CLI tests: argument parsing, config construction, command output."""

import json

import pytest

from repro.analysis import harness
from repro.cli import build_parser, config_from_args, main
from repro.common.config import AlternatePathMode, FetchScheme


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Keep CLI-triggered cache writes out of the repo's benchmark cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
    return tmp_path


def parse(argv):
    return build_parser().parse_args(argv)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            parse([])

    def test_run_defaults(self):
        args = parse(["run"])
        assert args.workload == "leela"
        assert not args.apf

    def test_windows_default_to_bench_windows(self, monkeypatch):
        # None means "use harness.bench_windows()" so `repro run` and the
        # benches hit the same cache entries by default
        args = parse(["run"])
        assert args.warmup is None and args.measure is None
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert harness.bench_windows() == (2_000, 1_500)

    def test_bench_defaults(self):
        args = parse(["bench"])
        assert args.names == []
        assert args.jobs is None
        assert args.timeout is None
        assert args.retries == 1
        assert not args.no_cache
        assert not args.list_benches

    def test_bench_flags(self):
        args = parse(["bench", "fig02_mpki", "table3_config",
                      "--jobs", "4", "--timeout", "30", "--no-cache"])
        assert args.names == ["fig02_mpki", "table3_config"]
        assert args.jobs == 4
        assert args.timeout == 30.0
        assert args.no_cache

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            parse(["run", "--workload", "nonexistent"])

    def test_sweep_requires_parameter(self):
        with pytest.raises(SystemExit):
            parse(["sweep"])

    def test_trace_defaults(self):
        args = parse(["trace", "leela"])
        assert args.workload == "leela"
        assert args.instructions == 5000
        assert args.format == "text"
        assert args.emit_metrics is None

    @pytest.mark.parametrize("argv, flag", [
        (["run", "--workload", "xz", "--sampling", "intervals=abc"],
         "--sampling"),
        (["run", "--workload", "xz", "--sampling", "bogus=1"], "--sampling"),
        (["bench", "fig02_mpki", "--sampling", "confidence=2"], "--sampling"),
        (["submit", "--sampling", "intervals=0"], "--sampling"),
        (["run", "--workload", "xz", "--warmup", "-5", "--measure", "100"],
         "--warmup"),
        (["run", "--measure", "0"], "--measure"),
        (["compare", "--measure", "-1"], "--measure"),
        (["submit", "--warmup", "soon"], "--warmup"),
        (["trace", "leela", "--instructions", "-3"], "--instructions"),
        (["characterize", "--instructions", "0"], "--instructions"),
        (["bench", "fig02_mpki", "--jobs", "0"], "--jobs"),
        (["serve", "--jobs", "-3"], "--jobs"),
        (["bench", "fig02_mpki", "--retries", "-2"], "--retries"),
        (["serve", "--retries", "-2"], "--retries"),
        (["bench", "fig02_mpki", "--timeout", "-1"], "--timeout"),
        (["serve", "--timeout", "0"], "--timeout"),
        (["bench", "fig02_mpki", "--timeout", "soon"], "--timeout"),
        (["run", "--apf", "--depth", "-5", "--warmup", "500",
          "--measure", "1000"], "--depth"),
        (["run", "--apf", "--depth", "0"], "--depth"),
        (["compare", "--buffers", "-1"], "--buffers"),
        (["trace", "leela", "--dpip", "--depth", "0"], "--depth"),
        (["trace", "leela", "--capacity", "0"], "--capacity"),
        (["trace", "leela", "--capacity", "-1"], "--capacity"),
        (["trace", "leela", "--cycles", "0"], "--cycles"),
        (["trace", "leela", "--cycles", "-5"], "--cycles"),
        (["trace", "leela", "--start", "-10"], "--start"),
        (["submit", "--buffers", "-2"], "--buffers"),
    ])
    def test_malformed_windows_and_specs_exit_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("variable, value", [
        ("REPRO_BENCH_JOBS", "abc"),
        ("REPRO_BENCH_SCALE", "bogus"),
    ])
    def test_malformed_env_settings_exit_2(self, variable, value,
                                           monkeypatch, capsys):
        monkeypatch.setenv(variable, value)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "fig02_mpki"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert variable in err and repr(value) in err
        assert "Traceback" not in err

    def test_sampling_spec_passes_through_as_text(self):
        args = parse(["submit", "--sampling", "intervals=8,period=1000"])
        assert args.sampling == "intervals=8,period=1000"

    def test_trace_requires_workload(self):
        with pytest.raises(SystemExit):
            parse(["trace"])
        with pytest.raises(SystemExit):
            parse(["trace", "bogus"])

    def test_emit_metrics_flag_on_all_surfaces(self):
        for argv in (["run", "--emit-metrics", "m.jsonl"],
                     ["compare", "--emit-metrics", "m.jsonl"],
                     ["sweep", "--parameter", "depth",
                      "--emit-metrics", "m.jsonl"],
                     ["bench", "--emit-metrics", "m.jsonl"],
                     ["trace", "leela", "--emit-metrics", "m.jsonl"]):
            assert parse(argv).emit_metrics == "m.jsonl"


class TestConfigFromArgs:
    def test_baseline(self):
        cfg = config_from_args(parse(["run"]))
        assert not cfg.apf.enabled

    def test_apf_flags(self):
        cfg = config_from_args(parse(
            ["run", "--apf", "--depth", "7", "--buffers", "2",
             "--scheme", "timeshare", "--no-confidence"]))
        assert cfg.apf.enabled
        assert cfg.apf.pipeline_depth == 7
        assert cfg.apf.num_buffers == 2
        assert cfg.apf.buffer_capacity_uops == 56
        assert cfg.apf.fetch_scheme == FetchScheme.TIME_SHARED
        assert not cfg.apf.use_tage_confidence

    def test_dpip_flag(self):
        cfg = config_from_args(parse(["run", "--dpip", "--depth", "17"]))
        assert cfg.apf.mode == AlternatePathMode.DPIP
        assert cfg.apf.num_buffers == 0

    def test_predictor_choice(self):
        cfg = config_from_args(parse(["run", "--predictor", "perceptron"]))
        assert cfg.predictor_kind == "perceptron"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "perlbench" in out and "tc" in out

    def test_describe(self, capsys):
        assert main(["describe", "--apf"]) == 0
        out = capsys.readouterr().out
        assert "enabled=True" in out
        assert "15 stages" in out

    def test_run_small(self, capsys):
        code = main(["run", "--workload", "xz",
                     "--warmup", "1000", "--measure", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "branch MPKI" in out

    def test_run_apf_prints_apf_metrics(self, capsys):
        main(["run", "--workload", "leela", "--apf",
              "--warmup", "2000", "--measure", "3000"])
        out = capsys.readouterr().out
        assert "APF restores" in out

    def test_compare(self, capsys):
        code = main(["compare", "--workloads", "xz,leela",
                     "--warmup", "1000", "--measure", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GEOMEAN" in out

    def test_compare_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["compare", "--workloads", "bogus"])

    def test_sweep_buffers(self, capsys):
        code = main(["sweep", "--workload", "xz", "--parameter", "buffers",
                     "--warmup", "1000", "--measure", "1500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "buffers" in out

    def test_characterize(self, capsys):
        code = main(["characterize", "--workload", "tc",
                     "--instructions", "5000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "taken density" in out
        assert "branch mix" in out

    def test_run_shares_cache_with_benches(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert main(["run", "--workload", "xz"]) == 0
        warmup, measure = harness.bench_windows()
        [entry] = list(tmp_path.glob("*.json"))
        assert entry.name.startswith(
            f"v{harness.CACHE_SCHEMA_VERSION}-xz-{warmup}-{measure}-")

    def test_run_no_cache_writes_nothing(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["run", "--workload", "xz", "--warmup", "500",
                     "--measure", "500", "--no-cache"]) == 0
        assert not list(tmp_path.glob("*.json"))

    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig08_main_result" in out
        assert "table4_bank_conflicts" in out

    def test_bench_rejects_unknown_name(self):
        with pytest.raises(SystemExit, match="unknown benchmarks"):
            main(["bench", "nonexistent_bench"])

    def test_bench_runs_sim_free_benchmark(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        code = main(["bench", "table3_config",
                     "--manifest", str(manifest)])
        assert code == 0
        assert "Table III" in capsys.readouterr().out
        assert manifest.exists()
        payload = json.loads(manifest.read_text())
        assert payload["meta"]["benchmarks"] == ["table3_config"]


def read_metrics(path):
    from repro.obs.metrics import validate_metric_record
    records = [json.loads(line)
               for line in path.read_text().splitlines()]
    for record in records:
        validate_metric_record(record)
    return records


class TestTraceCommand:
    def test_text_trace(self, capsys):
        code = main(["trace", "leela", "--instructions", "1500",
                     "--start", "170", "--cycles", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cycles 170.." in out
        assert "occupancy" in out
        assert "rob" in out and "ftq" in out

    def test_chrome_export(self, tmp_path, capsys):
        out_path = tmp_path / "leela.trace.json"
        code = main(["trace", "leela", "--instructions", "1000",
                     "--format", "chrome", "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"][0]["ph"] == "M"
        from repro.obs import validate_chrome_trace
        validate_chrome_trace(doc)

    def test_o3_export(self, tmp_path, capsys):
        out_path = tmp_path / "leela.o3.txt"
        code = main(["trace", "leela", "--instructions", "1000",
                     "--format", "o3", "--out", str(out_path)])
        assert code == 0
        from repro.obs import validate_o3_trace
        validate_o3_trace(out_path.read_text())

    def test_trace_emits_occupancy_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        code = main(["trace", "leela", "--instructions", "1000", "--apf",
                     "--emit-metrics", str(metrics)])
        assert code == 0
        records = read_metrics(metrics)
        assert records
        assert {r["kind"] for r in records} == {"occupancy"}
        assert {r["subsystem"] for r in records} >= {"rob", "ftq"}


class TestEmitMetrics:
    def test_run_emits_result_record(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        code = main(["run", "--workload", "xz", "--warmup", "500",
                     "--measure", "800", "--emit-metrics", str(metrics)])
        assert code == 0
        [record] = read_metrics(metrics)
        assert record["kind"] == "result"
        assert record["workload"] == "xz"
        assert record["instructions"] > 0
        assert len(record["config"]) == 20

    def test_compare_emits_one_record_per_simulation(self, tmp_path,
                                                     capsys):
        metrics = tmp_path / "m.jsonl"
        code = main(["compare", "--workloads", "xz,leela",
                     "--warmup", "500", "--measure", "800",
                     "--emit-metrics", str(metrics)])
        assert code == 0
        records = read_metrics(metrics)
        # two workloads x (baseline + APF)
        assert len(records) == 4
        assert {r["workload"] for r in records} == {"xz", "leela"}
        assert len({r["config"] for r in records}) == 2

    def test_sampled_run_emits_interval_records(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        code = main(["run", "--workload", "xz", "--no-cache",
                     "--sampling", "intervals=3,period=900,measure=300",
                     "--emit-metrics", str(metrics)])
        assert code == 0
        records = read_metrics(metrics)
        kinds = [r["kind"] for r in records]
        assert kinds.count("sampling_interval") == 3
        assert kinds[-1] == "result"
