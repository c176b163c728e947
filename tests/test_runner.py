"""Tests for the process-parallel experiment runner and its crash-safe
result store: parallel-vs-serial equivalence, cache hit accounting,
corrupt-entry recovery, per-job timeout, bounded retry, the manifest,
and the lifecycle of the long-lived worker processes.

Simulation windows are tiny so each job is ~50 ms; the determinism
guarantees under test are window-independent.
"""

import json
import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis import harness
from repro.analysis import runner as runner_mod
from repro.analysis.runner import (
    Job,
    JobExecutor,
    RunManifest,
    Runner,
    RunnerError,
    current_runner,
    make_job,
    resolve_jobs,
    using_runner,
)
from repro.common.config import small_core_config

WARMUP, MEASURE = 400, 400
WORKLOADS = ["xz", "leela"]


def cache_to(monkeypatch, path):
    path.mkdir(parents=True, exist_ok=True)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    return path


def snapshot(results):
    return {name: harness.serialize_result(res)
            for name, res in results.items()}


class TestEquivalence:
    def test_parallel_matches_serial_results_and_cache_bytes(
            self, tmp_path, monkeypatch):
        configs = {"base": small_core_config(),
                   "apf": small_core_config().with_apf()}

        serial_dir = cache_to(monkeypatch, tmp_path / "serial")
        serial = Runner(jobs=1, progress=False).run_sweep_configs(
            WORKLOADS, configs, WARMUP, MEASURE)

        parallel_dir = cache_to(monkeypatch, tmp_path / "parallel")
        parallel = Runner(jobs=4, progress=False).run_sweep_configs(
            WORKLOADS, configs, WARMUP, MEASURE)

        for cfg_name in configs:
            assert snapshot(parallel[cfg_name]) == snapshot(serial[cfg_name])

        serial_files = sorted(p.name for p in serial_dir.glob("*.json"))
        parallel_files = sorted(p.name for p in parallel_dir.glob("*.json"))
        assert serial_files == parallel_files
        assert len(serial_files) == len(WORKLOADS) * len(configs)
        for name in serial_files:
            assert (serial_dir / name).read_bytes() \
                == (parallel_dir / name).read_bytes()

    def test_runner_matches_run_cached(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        cfg = small_core_config()
        direct = harness.run_cached("xz", cfg, WARMUP, MEASURE,
                                    use_cache=False)
        via_runner = Runner(jobs=1, progress=False).run_sweep(
            ["xz"], cfg, WARMUP, MEASURE)["xz"]
        assert harness.serialize_result(via_runner) \
            == harness.serialize_result(direct)


class TestCache:
    def test_second_run_is_all_cache_hits(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        cfg = small_core_config()
        first = Runner(jobs=2, progress=False)
        first.run_sweep(WORKLOADS, cfg, WARMUP, MEASURE)
        assert all(not e["cache_hit"] for e in first.manifest.jobs)

        second = Runner(jobs=2, progress=False)
        second.run_sweep(WORKLOADS, cfg, WARMUP, MEASURE)
        assert all(e["cache_hit"] for e in second.manifest.jobs)
        assert second.manifest.counts() == {"ok": len(WORKLOADS)}

    def test_corrupt_entry_is_recovered_and_recorded(
            self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        cfg = small_core_config()
        clean = Runner(jobs=1, progress=False).run_sweep(
            ["xz"], cfg, WARMUP, MEASURE)
        path = harness.entry_path(make_job("xz", cfg, WARMUP, MEASURE).key)
        intact = path.read_bytes()
        path.write_bytes(intact[:25])   # truncate mid-JSON

        runner = Runner(jobs=1, progress=False)
        recovered = runner.run_sweep(["xz"], cfg, WARMUP, MEASURE)
        assert snapshot(recovered) == snapshot(clean)
        assert path.read_bytes() == intact          # rewritten atomically
        events = [e for e in runner.manifest.events
                  if e["kind"] == "corrupt_cache_entry"]
        assert len(events) == 1 and events[0]["path"] == str(path)
        assert not runner.manifest.jobs[0]["cache_hit"]

    def test_no_cache_mode_leaves_disk_untouched(self, tmp_path,
                                                 monkeypatch):
        cache_to(monkeypatch, tmp_path)
        runner = Runner(jobs=1, use_cache=False, progress=False)
        runner.run_sweep(["xz"], small_core_config(), WARMUP, MEASURE)
        assert not list(tmp_path.iterdir())

    def test_no_temp_files_left_behind(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        Runner(jobs=2, progress=False).run_sweep(
            WORKLOADS, small_core_config(), WARMUP, MEASURE)
        assert not list(tmp_path.glob("*.tmp*"))


class TestFailureHandling:
    def test_timeout_kills_retries_and_reports(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        job = Job("leela", small_core_config(), 300_000, 300_000)
        runner = Runner(jobs=1, timeout=0.1, retries=1, progress=False)
        results = runner.run([job], strict=False)
        assert results == {}
        [entry] = runner.manifest.jobs
        assert entry["status"] == "timeout"
        assert entry["attempts"] == 2          # initial + one retry
        retries = [e for e in runner.manifest.events
                   if e["kind"] == "retry"]
        assert len(retries) == 1

    def test_timeout_retry_fail_leaves_cache_empty(self, tmp_path,
                                                   monkeypatch):
        cache_to(monkeypatch, tmp_path)
        job = Job("leela", small_core_config(), 300_000, 300_000)
        runner = Runner(jobs=1, timeout=0.1, retries=2, progress=False)
        runner.run([job], strict=False)
        [entry] = runner.manifest.jobs
        assert entry["status"] == "timeout"
        assert entry["attempts"] == 3          # initial + two retries
        retries = [e for e in runner.manifest.events
                   if e["kind"] == "retry"]
        assert [e["attempt"] for e in retries] == [1, 2]
        assert all(e["key"] == job.key for e in retries)
        assert all(e["status"] == "timeout" for e in retries)
        # a job that never succeeded must never write a cache entry
        assert not list(tmp_path.iterdir())

    def test_retry_reenqueues_at_tail(self, tmp_path, monkeypatch):
        """A retried job waits behind everything already queued: with one
        slot, the bad job's retry runs after the good job, so the good
        result lands in the manifest first."""
        cache_to(monkeypatch, tmp_path)
        bad = Job("no-such-workload", small_core_config(), WARMUP, MEASURE)
        good = Job("xz", small_core_config(), WARMUP, MEASURE)
        runner = Runner(jobs=1, retries=1, progress=False)
        results = runner.run([bad, good], strict=False)
        assert len(results) == 1
        order = [(e["workload"], e["status"])
                 for e in runner.manifest.jobs]
        assert order == [("xz", "ok"), ("no-such-workload", "failed")]
        bad_entry = runner.manifest.jobs[1]
        assert bad_entry["attempts"] == 2

    def test_strict_mode_raises_after_campaign(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        bad = Job("no-such-workload", small_core_config(), WARMUP, MEASURE)
        good = Job("xz", small_core_config(), WARMUP, MEASURE)
        runner = Runner(jobs=2, retries=0, progress=False)
        with pytest.raises(RunnerError) as err:
            runner.run([bad, good])
        assert len(err.value.failures) == 1
        # the good job still completed and was cached before the raise
        statuses = {e["workload"]: e["status"] for e in runner.manifest.jobs}
        assert statuses["xz"] == "ok"
        assert statuses["no-such-workload"] == "failed"

    def test_worker_exception_recorded_with_traceback(self, tmp_path,
                                                      monkeypatch):
        cache_to(monkeypatch, tmp_path)
        bad = Job("no-such-workload", small_core_config(), WARMUP, MEASURE)
        runner = Runner(jobs=1, retries=0, progress=False)
        runner.run([bad], strict=False)
        [entry] = runner.manifest.jobs
        assert "no-such-workload" in entry["error"] \
            or "Traceback" in entry["error"]


class TestScheduling:
    def test_duplicate_jobs_run_once(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        job = make_job("xz", small_core_config(), WARMUP, MEASURE)
        runner = Runner(jobs=2, progress=False)
        results = runner.run([job, Job(job.workload, job.config,
                                       job.warmup, job.measure, job.seed)])
        assert len(results) == 1
        assert len(runner.manifest.jobs) == 1

    def test_make_job_defaults_to_bench_windows(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        job = make_job("xz", small_core_config())
        assert (job.warmup, job.measure) == harness.bench_windows()

    def test_job_key_is_signed_once_per_job(self, monkeypatch):
        signed = []
        sign = harness.config_signature
        monkeypatch.setattr(harness, "config_signature",
                            lambda config: signed.append(config)
                            or sign(config))
        one = make_job("xz", small_core_config().with_apf(tage_banks=1),
                       100, 100)
        assert len({one.key for _ in range(5)}) == 1
        assert len(signed) == 1
        # equal jobs whose configs sign differently keep their own keys
        true = make_job("xz", small_core_config().with_apf(tage_banks=True),
                        100, 100)
        assert true == one and true.key != one.key

    def test_resolve_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        assert resolve_jobs() == 1
        assert resolve_jobs(6) == 6
        monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(0) == 1
        for bad in ("abc", "0", "-2"):
            monkeypatch.setenv("REPRO_BENCH_JOBS", bad)
            with pytest.raises(ValueError, match="REPRO_BENCH_JOBS"):
                resolve_jobs()

    def test_using_runner_routes_harness_sweep(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        runner = Runner(jobs=2, progress=False)
        with using_runner(runner):
            assert current_runner() is runner
            harness.sweep(WORKLOADS, small_core_config(), WARMUP, MEASURE)
        assert len(runner.manifest.jobs) == len(WORKLOADS)
        assert current_runner() is not runner


class TestExecutor:
    def test_submit_step_event_sequence(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        job = make_job("xz", small_core_config(), WARMUP, MEASURE)
        with JobExecutor(slots=1) as executor:
            assert executor.idle and executor.free_slots == 1
            executor.submit(job)
            assert executor.pending_count == 1 and executor.free_slots == 0
            events = []
            while not executor.idle:
                events.extend(executor.step())
        assert [e.kind for e in events] == ["started", "ok"]
        assert events[-1].attempts == 1
        assert events[-1].payload["workload"] == "xz"
        assert events[-1].wall_time > 0


def run_payloads(jobs):
    """Each job's payload from a 1-slot executor, run in ``jobs`` order."""
    payloads = {}
    with JobExecutor(slots=1, retries=0) as executor:
        for job in jobs:
            executor.submit(job)
        while not executor.idle:
            for event in executor.step():
                assert event.kind in ("started", "ok"), event.error
                if event.kind == "ok":
                    payloads[event.job] = json.dumps(event.payload,
                                                     sort_keys=True)
    return payloads


def before_each_job(monkeypatch, hook):
    """Call ``hook(workload)`` in the worker ahead of every job; its
    return value replaces the workload. Workers are forked, so they
    inherit the patched module global."""
    original = runner_mod._worker_main

    def patched(conn, workload, *rest):
        original(conn, hook(workload), *rest)
    monkeypatch.setattr(runner_mod, "_worker_main", patched)


def alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestWorkerPool:
    def test_one_worker_serves_every_job(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path / "cache")
        pids = tmp_path / "pids"

        def record_pid(workload):
            with pids.open("a") as handle:
                handle.write(f"{os.getpid()}\n")
            return workload
        before_each_job(monkeypatch, record_pid)
        cfg = small_core_config()
        jobs = [Job("xz", cfg, WARMUP, MEASURE),
                Job("leela", cfg.with_apf(), WARMUP, MEASURE),
                Job("xz", cfg.with_apf(), WARMUP, MEASURE)]
        forward = run_payloads(jobs)
        served = pids.read_text().split()
        assert len(served) == 3 and len(set(served)) == 1
        assert int(served[0]) != os.getpid()
        # a reused worker carries no state from one job into the next
        assert forward == run_payloads(jobs[::-1])

    @pytest.mark.parametrize("failure", ["crash", "raise"])
    def test_failed_attempt_costs_its_worker(self, tmp_path, monkeypatch,
                                             failure):
        cache_to(monkeypatch, tmp_path / "cache")
        pids = tmp_path / "pids"
        failed_once = tmp_path / "failed-once"

        def fail_first_attempt(workload):
            with pids.open("a") as handle:
                handle.write(f"{os.getpid()}\n")
            if failed_once.exists():
                return workload
            failed_once.touch()
            if failure == "crash":
                os._exit(3)
            return "no-such-workload"     # raises inside _worker_main
        before_each_job(monkeypatch, fail_first_attempt)
        job = Job("xz", small_core_config(), WARMUP, MEASURE)
        runner = Runner(jobs=1, retries=1, progress=False)
        results = runner.run([job])
        assert results[job].workload == "xz"
        [entry] = runner.manifest.jobs
        assert entry["status"] == "ok" and entry["attempts"] == 2
        [retry] = [e for e in runner.manifest.events
                   if e["kind"] == "retry"]
        assert retry["status"] == "failed"
        if failure == "crash":
            assert retry["error"] == "worker crashed (exitcode 3)"
        first, second = pids.read_text().split()
        assert first != second and not alive(int(first))

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process states from /proc")
    def test_idle_worker_exits_when_its_owner_is_killed(self, tmp_path):
        script = textwrap.dedent("""
            import multiprocessing, time
            from repro.analysis.runner import JobExecutor, make_job
            from repro.common.config import small_core_config
            executor = JobExecutor(slots=1)
            executor.submit(make_job("xz", small_core_config(), 400, 400))
            while not executor.idle:
                executor.step()
            [worker] = multiprocessing.active_children()
            print(worker.pid, flush=True)
            time.sleep(600)
        """)
        src = Path(harness.__file__).resolve().parents[2]
        env = dict(os.environ,
                   PYTHONPATH=str(src) + os.pathsep
                   + os.environ.get("PYTHONPATH", ""),
                   REPRO_CACHE_DIR=str(tmp_path))
        with subprocess.Popen([sys.executable, "-c", script], env=env,
                              stdout=subprocess.PIPE, text=True) as owner:
            try:
                ready, _, _ = select.select([owner.stdout], [], [], 120)
                assert ready, "the owner never finished its first job"
                worker = int(owner.stdout.readline())
                assert alive(worker)
            finally:
                owner.kill()
        deadline = time.monotonic() + 10
        while alive(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphaned = alive(worker)
        if orphaned:
            os.kill(worker, signal.SIGKILL)
        assert not orphaned, "the idle worker outlived its owner"


class TestManifest:
    def test_manifest_saves_valid_json(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path / "cache")
        manifest = RunManifest(meta={"campaign": "unit"})
        runner = Runner(jobs=1, progress=False, manifest=manifest)
        runner.run_sweep(["xz"], small_core_config(), WARMUP, MEASURE)
        out = manifest.save(tmp_path / "manifest.json")
        payload = json.loads(out.read_text())
        assert payload["meta"] == {"campaign": "unit"}
        assert payload["counts"] == {"ok": 1}
        [entry] = payload["jobs"]
        assert entry["workload"] == "xz"
        assert entry["status"] == "ok"
        assert entry["wall_time_s"] >= 0
        assert not list(tmp_path.glob("*.tmp*"))

    def test_save_failure_leaves_no_tmp_file(self, tmp_path):
        manifest = RunManifest(meta={"unserialisable": object()})
        target = tmp_path / "manifest.json"
        with pytest.raises(TypeError):
            manifest.save(target)
        assert not target.exists()
        assert not list(tmp_path.iterdir())   # the temp file was unlinked
