"""Tests for the ``repro serve`` service layer: request parsing, DAG
expansion, the content-addressed single-flight store, DAG scheduling
with failure poisoning, the HTTP daemon end to end, and crash-safe
restart recovery via the persistent request journal.

The acceptance properties from the service design are asserted here:

* two concurrent overlapping submissions execute each shared job exactly
  once (single-flight dedup, checked via manifest and telemetry);
* service results are byte-identical to a direct ``Runner.run()`` of the
  same jobs (same cache-entry bytes);
* a mid-DAG failure poisons only its transitive dependents while
  independent branches complete;
* SIGKILLing the daemon mid-sweep and restarting with ``--resume``
  finishes the original request with zero re-executions of completed
  leaves and byte-identical payloads, while ``--fresh`` archives the
  stale journal unreplayed.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis import harness
from repro.analysis.runner import Runner, make_job
from repro.common.config import small_core_config
from repro.obs.metrics import validate_metric_record
from repro.service import (
    JOURNAL_SCHEMA_VERSION,
    JournalError,
    RequestError,
    RequestJournal,
    ResultStore,
    ServiceClient,
    ServiceError,
    ServiceScheduler,
    ServiceTelemetry,
    archive_journal,
    build_service,
    config_from_spec,
    default_journal_path,
    expand_request,
    parse_request,
    replay_journal,
)

WARMUP, MEASURE = 400, 400


def cache_to(monkeypatch, path):
    path.mkdir(parents=True, exist_ok=True)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    return path


def compare_doc(workloads, warmup=WARMUP, measure=MEASURE):
    return {"kind": "compare", "workloads": list(workloads),
            "warmup": warmup, "measure": measure}


def sweep_doc(workloads, warmup=WARMUP, measure=MEASURE):
    return {"kind": "sweep", "workloads": list(workloads),
            "configs": [{"name": "base", "config": {}}],
            "warmup": warmup, "measure": measure}


def make_scheduler(slots=2, **kwargs):
    return ServiceScheduler(slots=slots, **kwargs)


# --------------------------------------------------------------------------
# Requests
# --------------------------------------------------------------------------

class TestRequests:
    def test_config_from_spec_defaults(self):
        assert config_from_spec({}) == small_core_config()
        assert config_from_spec(None) == small_core_config()
        assert config_from_spec({"apf": {}}) == small_core_config().with_apf(
            pipeline_depth=13, num_buffers=4, buffer_capacity_uops=104,
            tage_banks=4, use_tage_confidence=True)

    def test_config_from_spec_depth_scales_buffer_capacity(self):
        cfg = config_from_spec({"apf": {"depth": 5}})
        assert cfg.apf.pipeline_depth == 5
        assert cfg.apf.buffer_capacity_uops == 40

    def test_config_from_spec_dpip(self):
        cfg = config_from_spec({"apf": {"mode": "dpip"}})
        assert cfg.apf.num_buffers == 0

    @pytest.mark.parametrize("spec", [
        {"scale": "huge"},
        {"predictor": "oracle"},
        {"unknown_field": 1},
        {"apf": {"depth": 13, "bogus": True}},
        {"apf": {"scheme": "psychic"}},
        {"apf": {"tage_banks": 3}},
    ])
    def test_config_from_spec_rejects_bad_specs(self, spec):
        with pytest.raises(RequestError):
            config_from_spec(spec)

    def test_parse_compare_fills_defaults(self):
        request = parse_request(compare_doc(["xz"]))
        assert request.kind == "compare"
        assert request.workloads == ("xz",)
        assert request.seed == 1234
        assert request.doc["base"] == {}
        assert request.doc["test"] == {"apf": {}}

    def test_signature_stable_under_omitted_defaults(self):
        implicit = parse_request(compare_doc(["xz"]))
        explicit = parse_request({**compare_doc(["xz"]), "seed": 1234,
                                  "base": {}, "test": {"apf": {}},
                                  "sampling": None})
        assert implicit.signature == explicit.signature

    @pytest.mark.parametrize("doc", [
        {"kind": "destroy"},
        {"kind": "run"},                                  # no workload
        {"kind": "compare", "workloads": []},
        {"kind": "compare", "workloads": ["xz"], "test": {}},  # base == test
        {"kind": "compare", "workloads": ["xz"], "warmup": "soon"},
        {"kind": "run", "workload": "xz", "warmup": -5},
        {"kind": "compare", "workloads": ["xz"], "measure": 0},
        {"kind": "compare", "workloads": ["xz"], "surprise": 1},
        {"kind": "compare", "workloads": ["xz"], "sampling": "bogus!!"},
        {"kind": "sweep", "workloads": ["xz"], "configs": []},
        {"kind": "sweep", "workloads": ["xz"],
         "configs": [{"name": "a", "config": {}},
                     {"name": "a", "config": {"apf": {}}}]},
        "not an object",
    ])
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(RequestError):
            parse_request(doc)


# --------------------------------------------------------------------------
# DAG expansion and poisoning
# --------------------------------------------------------------------------

class TestExpand:
    def test_run_request_is_one_leaf(self):
        graph = expand_request(parse_request(
            {"kind": "run", "workload": "xz",
             "warmup": WARMUP, "measure": MEASURE}))
        [node] = graph.nodes.values()
        assert node.kind == "simulate"
        expected = make_job("xz", small_core_config(), WARMUP, MEASURE)
        assert node.key == expected.key

    def test_compare_structure_and_content_addresses(self):
        graph = expand_request(parse_request(compare_doc(["xz", "leela"])))
        leaves = graph.leaves()
        synths = [n for n in graph.nodes.values() if n.kind == "synthesize"]
        assert len(graph.nodes) == 7          # 4 leaves + 2 deltas + geomean
        assert len(leaves) == 4
        # leaf keys are exactly the runner/cache content addresses
        base_cfg = config_from_spec({})
        assert make_job("xz", base_cfg, WARMUP, MEASURE).key \
            in {n.key for n in leaves}
        [summary] = [n for n in synths if n.synth == "compare_summary"]
        assert [n.key for n in graph.roots()] == [summary.key]
        deltas = [n for n in synths if n.synth == "compare_delta"]
        assert summary.deps == [d.key for d in deltas]

    def test_sweep_structure(self):
        doc = {"kind": "sweep", "workloads": ["xz", "leela"],
               "configs": [{"name": "base", "config": {}},
                           {"name": "d13", "config": {"apf": {}}}],
               "warmup": WARMUP, "measure": MEASURE}
        graph = expand_request(parse_request(doc))
        assert len(graph.leaves()) == 4
        synths = {n.synth for n in graph.nodes.values()
                  if n.kind == "synthesize"}
        assert synths == {"config_summary", "sweep_summary"}
        assert len(graph.nodes) == 7

    def test_poison_spares_independent_branches(self):
        graph = expand_request(parse_request(compare_doc(["xz", "leela"])))
        xz_base = next(n for n in graph.leaves() if n.label == "xz/base")
        xz_base.state = "failed"
        poisoned = graph.poison(xz_base.key)
        labels = sorted(n.label for n in poisoned)
        assert labels == ["geomean", "xz/delta"]
        untouched = [n for n in graph.nodes.values()
                     if n.label.startswith("leela")]
        assert all(n.state == "pending" for n in untouched)
        assert all(n.state == "poisoned" for n in poisoned)


# --------------------------------------------------------------------------
# Result store
# --------------------------------------------------------------------------

class TestResultStore:
    def test_single_flight_claims(self):
        store = ResultStore(use_disk=False)
        assert store.claim("k", "leader") == ("leader", None)
        assert store.claim("k", "w1") == ("wait", None)
        assert store.claim("k", "w2") == ("wait", None)
        waiters = store.complete("k", {"x": 1}, leaf=False)
        assert waiters == ["leader", "w1", "w2"]
        assert store.get("k") == {"x": 1}
        assert store.claim("k", "late") == ("hit", {"x": 1})
        assert store.stats()["dedups"] == 2
        assert store.stats()["inflight"] == 0

    def test_fail_releases_key_for_reexecution(self):
        store = ResultStore(use_disk=False)
        store.claim("k", "leader")
        store.claim("k", "w1")
        assert store.fail("k") == ["leader", "w1"]
        assert store.get("k") is None
        assert store.claim("k", "again") == ("leader", None)

    def test_leaf_completion_writes_harness_cache(self, tmp_path,
                                                  monkeypatch):
        cache_to(monkeypatch, tmp_path)
        store = ResultStore(use_disk=True)
        payload = {"workload": "xz", "ipc": 1.0}
        store.claim("some-key", "leader")
        store.complete("some-key", payload, leaf=True)
        on_disk, corrupt = harness.probe_payload("some-key")
        assert (on_disk, corrupt) == (payload, False)
        # a fresh store (daemon restart) finds it as a disk hit
        assert ResultStore(use_disk=True).claim("some-key", "x") \
            == ("hit", payload)


# --------------------------------------------------------------------------
# Scheduler (inline drain)
# --------------------------------------------------------------------------

class TestScheduler:
    def test_results_byte_identical_to_direct_runner(self, tmp_path,
                                                     monkeypatch):
        base_cfg = config_from_spec({})
        test_cfg = config_from_spec({"apf": {}})
        jobs = [make_job(name, cfg, WARMUP, MEASURE)
                for name in ("xz", "leela")
                for cfg in (base_cfg, test_cfg)]

        direct_dir = cache_to(monkeypatch, tmp_path / "direct")
        Runner(jobs=2, progress=False).run(jobs)

        service_dir = cache_to(monkeypatch, tmp_path / "service")
        scheduler = make_scheduler()
        try:
            response = scheduler.submit_request(compare_doc(["xz", "leela"]))
            scheduler.drain()
        finally:
            scheduler.executor.shutdown()
        detail = scheduler.request_status(response["request_id"])
        assert detail["status"] == "done"

        direct_files = sorted(p.name for p in direct_dir.glob("*.json"))
        service_files = sorted(p.name for p in service_dir.glob("*.json"))
        assert direct_files == service_files == sorted(
            f"{job.key}.json" for job in jobs)
        for name in direct_files:
            assert (direct_dir / name).read_bytes() \
                == (service_dir / name).read_bytes()

        geomean = detail["results"]["geomean"]["payload"]
        assert geomean["synth"] == "compare_summary"
        assert set(geomean["speedups"]) == {"xz", "leela"}

    def test_overlapping_requests_share_executions(self, tmp_path,
                                                   monkeypatch):
        cache_to(monkeypatch, tmp_path)
        scheduler = make_scheduler()
        try:
            first = scheduler.submit_request(sweep_doc(["xz", "leela"]))
            second = scheduler.submit_request(sweep_doc(["leela", "tc"]))
            scheduler.drain()
        finally:
            scheduler.executor.shutdown()
        for response in (first, second):
            detail = scheduler.request_status(response["request_id"])
            assert detail["status"] == "done"

        # the shared leela/base job was simulated exactly once: one
        # manifest entry per unique key, and one "started" telemetry
        # record per key
        keys = [e["key"] for e in scheduler.manifest.jobs]
        assert len(keys) == len(set(keys)) == 3
        started = [r["key"] for r in scheduler.telemetry.records(
            kind="service_job") if r["event"] == "started"]
        assert sorted(started) == sorted(set(keys))
        assert scheduler.telemetry.counts()["service_job.dedup"] == 1
        assert scheduler.store.stats()["dedups"] == 1

    def test_failure_poisons_only_dependents(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        scheduler = make_scheduler(retries=0)
        try:
            response = scheduler.submit_request(
                compare_doc(["xz", "no-such-workload"]))
            scheduler.drain()
        finally:
            scheduler.executor.shutdown()
        detail = scheduler.request_status(response["request_id"])
        assert detail["status"] == "failed"
        states = {n["label"]: n["state"] for n in detail["nodes_detail"]}
        assert states["xz/base"] == "done"
        assert states["xz/test"] == "done"
        assert states["xz/delta"] == "done"      # independent branch lives
        assert states["no-such-workload/base"] == "failed"
        assert states["no-such-workload/test"] == "failed"
        assert states["no-such-workload/delta"] == "poisoned"
        assert states["geomean"] == "poisoned"
        errors = {n["label"]: n.get("error", "")
                  for n in detail["nodes_detail"]}
        assert "dependency failed" in errors["geomean"]

    def test_resubmission_served_from_cache(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        scheduler = make_scheduler()
        try:
            scheduler.submit_request(compare_doc(["xz"]))
            scheduler.drain()
            again = scheduler.submit_request(compare_doc(["xz"]))
        finally:
            scheduler.executor.shutdown()
        # every leaf hit the store: the request completed at submit time
        assert again["status"] == "done"
        counts = scheduler.telemetry.counts()
        assert counts["service_job.cache_hit"] == 2
        assert counts["service_job.started"] == 2   # from the first pass


# --------------------------------------------------------------------------
# HTTP daemon end to end
# --------------------------------------------------------------------------

@pytest.fixture
def service(tmp_path, monkeypatch):
    cache_to(monkeypatch, tmp_path / "cache")
    svc = build_service(jobs=2, port=0)
    url = svc.start()
    client = ServiceClient(url, timeout=10)
    client.wait_healthy()
    yield svc, client
    svc.stop()


class TestDaemon:
    def test_concurrent_overlapping_sweeps_end_to_end(
            self, service, tmp_path, monkeypatch):
        svc, client = service
        docs = [sweep_doc(["xz", "leela"]), sweep_doc(["leela", "tc"])]
        responses = [None, None]

        def submit(i):
            responses[i] = client.submit(docs[i])

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        details = [client.wait(r["request_id"], timeout=120)
                   for r in responses]
        assert all(d["status"] == "done" for d in details)

        # each shared job simulated exactly once across both requests
        metrics = client.metrics(kind="service_job")
        started = [r["key"] for r in metrics["records"]
                   if r["event"] == "started"]
        assert len(started) == len(set(started)) == 3

        # every buffered record round-trips the JSONL metric schema
        for record in client.metrics()["records"]:
            validate_metric_record(record)

        # payloads byte-identical to a direct Runner.run of the same jobs
        direct_dir = cache_to(monkeypatch, tmp_path / "direct")
        cfg = config_from_spec({})
        jobs = [make_job(name, cfg, WARMUP, MEASURE)
                for name in ("xz", "leela", "tc")]
        Runner(jobs=2, progress=False).run(jobs)
        service_dir = tmp_path / "cache"
        for job in jobs:
            assert (direct_dir / f"{job.key}.json").read_bytes() \
                == (service_dir / f"{job.key}.json").read_bytes()
            served = client.result(job.key)["payload"]
            assert harness.payload_bytes(served) \
                == harness.payload_bytes(
                    harness.probe_payload(job.key)[0])

    def test_resubmit_is_all_cache_hits(self, service):
        svc, client = service
        first = client.submit(compare_doc(["xz"]))
        assert client.wait(first["request_id"],
                           timeout=120)["status"] == "done"
        before = client.metrics()["counts"]
        second = client.submit(compare_doc(["xz"]))
        detail = client.wait(second["request_id"], timeout=30)
        assert detail["status"] == "done"
        after = client.metrics()["counts"]
        assert after["service_job.cache_hit"] \
            == before.get("service_job.cache_hit", 0) + 2
        assert after["service_job.started"] == before["service_job.started"]

    def test_http_error_paths(self, service):
        svc, client = service
        with pytest.raises(ServiceError) as err:
            client.submit({"kind": "destroy"})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.status("r9999-nope")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.result("bad!key")
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.result("v99-absent-key")
        assert err.value.status == 404
        health = client.healthz()
        assert health["status"] == "ok"


# --------------------------------------------------------------------------
# Request journal: append/replay units
# --------------------------------------------------------------------------

class TestJournal:
    def test_missing_journal_replays_empty(self, tmp_path):
        replay = replay_journal(tmp_path / "absent.jsonl")
        assert replay.requests == {}
        assert replay.unfinished() == []
        assert replay.stale_claims() == set()
        assert not replay.truncated

    def test_round_trip_replay(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RequestJournal(path)
        doc = parse_request(compare_doc(["xz"])).doc
        journal.request_admitted("r0001-abc", 1, doc)
        journal.job_claimed("k1", "r0001-abc")
        journal.job_claimed("k2", "r0001-abc")
        journal.job_completed("k1")
        journal.job_failed("k3", "boom")
        journal.request_admitted("r0002-def", 2, doc)
        journal.request_finished("r0002-def", "done")
        journal.close()

        replay = replay_journal(path)
        assert set(replay.requests) == {"r0001-abc", "r0002-def"}
        assert [r.request_id for r in replay.unfinished()] == ["r0001-abc"]
        assert replay.requests["r0001-abc"].doc == doc
        assert replay.requests["r0002-def"].status == "done"
        assert replay.max_seq == 2
        assert replay.completed == {"k1"}
        assert replay.failed == {"k3": "boom"}
        # k2 was claimed by the (now dead) writer and never finished
        assert replay.stale_claims() == {"k2"}
        assert not replay.truncated

    def test_truncated_tail_line_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RequestJournal(path)
        journal.job_claimed("k1", "r0001-abc")
        journal.job_completed("k1")
        journal.close()
        with path.open("a") as handle:       # crash mid-append: no newline
            handle.write('{"schema": %d, "event": "job_comp'
                         % JOURNAL_SCHEMA_VERSION)
        replay = replay_journal(path)
        assert replay.truncated
        assert replay.completed == {"k1"}
        assert replay.lines == 2

    def test_garbled_final_record_with_newline_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RequestJournal(path)
        journal.job_completed("k1")
        journal.close()
        with path.open("a") as handle:
            handle.write("{not json}\n")
        replay = replay_journal(path)
        assert replay.truncated
        assert replay.completed == {"k1"}

    def test_corrupt_mid_file_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RequestJournal(path)
        journal.job_completed("k1")
        journal.close()
        with path.open("a") as handle:
            handle.write("{not json}\n")
        journal = RequestJournal(path)
        journal.job_completed("k2")          # valid line AFTER the corrupt one
        journal.close()
        with pytest.raises(JournalError, match="corrupt"):
            replay_journal(path)

    def test_unknown_schema_version_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        record = {"schema": JOURNAL_SCHEMA_VERSION + 1,
                  "event": "job_completed", "key": "k1"}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(JournalError, match="schema"):
            replay_journal(path)

    def test_unknown_event_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        record = {"schema": JOURNAL_SCHEMA_VERSION, "event": "mystery"}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(JournalError, match="unknown event"):
            replay_journal(path)

    def test_archive_rotates_without_clobbering(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        assert archive_journal(path) is None
        path.write_text("one\n")
        first = archive_journal(path)
        assert first is not None and first.read_text() == "one\n"
        assert not path.exists()
        path.write_text("two\n")
        second = archive_journal(path)
        assert second != first
        assert first.read_text() == "one\n"
        assert second.read_text() == "two\n"

    def test_default_path_under_cache_root(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        assert default_journal_path().parent == tmp_path


# --------------------------------------------------------------------------
# Restart recovery (in-process crash simulation)
# --------------------------------------------------------------------------

def crashed_scheduler_with(doc, journal_path, **kwargs):
    """Submit ``doc`` under a journal and abandon the scheduler without
    running anything — the in-process stand-in for a SIGKILLed daemon."""
    journal = RequestJournal(journal_path)
    scheduler = ServiceScheduler(slots=1, journal=journal, **kwargs)
    response = scheduler.submit_request(doc)
    scheduler.executor.shutdown()
    journal.close()
    return response


class TestRecovery:
    def test_resume_completes_interrupted_request(self, tmp_path,
                                                  monkeypatch):
        # direct runner results for later byte-identity comparison
        cfg = config_from_spec({})
        jobs = {name: make_job(name, cfg, WARMUP, MEASURE)
                for name in ("xz", "leela", "tc")}
        direct_dir = cache_to(monkeypatch, tmp_path / "direct")
        Runner(jobs=2, progress=False).run(list(jobs.values()))

        service_dir = cache_to(monkeypatch, tmp_path / "service")
        # one leaf already completed before the "crash"
        Runner(jobs=1, progress=False).run([jobs["xz"]])
        path = default_journal_path()
        response = crashed_scheduler_with(sweep_doc(["xz", "leela", "tc"]),
                                          path)
        request_id = response["request_id"]

        replay = replay_journal(path)
        assert [r.request_id for r in replay.unfinished()] == [request_id]
        assert replay.stale_claims() == {jobs["leela"].key, jobs["tc"].key}
        archive_journal(path)

        scheduler = ServiceScheduler(slots=1,
                                     journal=RequestJournal(path))
        try:
            stats = scheduler.recover(replay)
            scheduler.drain()
        finally:
            scheduler.stop()
        assert stats["requests_resumed"] == 1
        assert stats["leaves_rehydrated"] == 1       # xz from the cache
        assert stats["leaves_requeued"] == 2
        assert stats["claims_reaped"] == 2

        detail = scheduler.request_status(request_id)
        assert detail["status"] == "done"
        assert detail["recovered"] is True
        states = {n["label"]: n for n in detail["nodes_detail"]}
        assert states["xz/base"]["recovered"] is True

        # zero re-executions of the completed leaf: only the two
        # unfinished leaves were ever started by the restarted scheduler
        started = [r["key"] for r in scheduler.telemetry.records(
            kind="service_job") if r["event"] == "started"]
        assert sorted(started) == sorted([jobs["leela"].key,
                                          jobs["tc"].key])
        counts = scheduler.telemetry.counts()
        assert counts["service_job.rehydrated"] == 1
        assert counts["service_job.requeued"] == 2
        assert counts["service_request.recovered"] == 1

        # the recovery summary is a schema-valid metric record
        [recovery] = scheduler.telemetry.records(kind="service_recovery")
        validate_metric_record(recovery)
        assert recovery["leaves_rehydrated"] == 1

        # payloads byte-identical to the direct Runner.run() entries
        for job in jobs.values():
            assert (direct_dir / f"{job.key}.json").read_bytes() \
                == (service_dir / f"{job.key}.json").read_bytes()

        # the new journal recorded the whole recovered lifecycle: a
        # second replay finds the request finished, nothing in flight
        second = replay_journal(path)
        assert second.requests[request_id].status == "done"
        assert second.unfinished() == []
        assert second.stale_claims() == set()

    def test_finished_requests_are_not_resumed(self, tmp_path,
                                               monkeypatch):
        cache_to(monkeypatch, tmp_path)
        path = default_journal_path()
        scheduler = ServiceScheduler(slots=2,
                                     journal=RequestJournal(path))
        try:
            scheduler.submit_request(compare_doc(["xz"]))
            scheduler.drain()
        finally:
            scheduler.executor.shutdown()
        scheduler.journal.close()

        replay = replay_journal(path)
        assert replay.unfinished() == []
        archive_journal(path)
        fresh = ServiceScheduler(slots=2, journal=RequestJournal(path))
        try:
            stats = fresh.recover(replay)
        finally:
            fresh.executor.shutdown()
        assert stats["requests_resumed"] == 0
        assert stats["requests_already_done"] == 1
        assert fresh.overview()["requests"] == []

    def test_replayed_failure_poisons_dependents(self, tmp_path,
                                                 monkeypatch):
        cache_to(monkeypatch, tmp_path)
        doc = parse_request(compare_doc(["xz"])).doc
        base_key = make_job("xz", config_from_spec({}), WARMUP,
                            MEASURE).key
        path = default_journal_path()
        journal = RequestJournal(path)
        journal.request_admitted("r0007-feed", 7, doc)
        journal.job_failed(base_key, "died before restart")
        journal.close()

        replay = replay_journal(path)
        archive_journal(path)
        scheduler = ServiceScheduler(slots=1,
                                     journal=RequestJournal(path))
        try:
            stats = scheduler.recover(replay)
            scheduler.drain()
            detail = scheduler.request_status("r0007-feed")
            response = scheduler.submit_request(sweep_doc(["xz"]))
        finally:
            scheduler.stop()
        assert stats["failures_replayed"] == 1
        assert detail["status"] == "failed"
        states = {n["label"]: n["state"] for n in detail["nodes_detail"]}
        assert states["xz/base"] == "failed"
        assert states["xz/delta"] == "poisoned"
        assert states["xz/test"] == "done"     # independent branch ran
        # seq restored past the journalled admission: no id collision
        assert response["request_id"].startswith("r0008-")

    def test_build_service_fresh_archives_unreplayed(self, tmp_path,
                                                     monkeypatch):
        cache_to(monkeypatch, tmp_path)
        path = default_journal_path()
        crashed_scheduler_with(sweep_doc(["xz"]), path)
        assert path.exists()

        service = build_service(jobs=1, port=0, resume=False)
        try:
            assert service.recovery is None
            assert service.scheduler.overview()["requests"] == []
            [record] = service.scheduler.telemetry.records(
                kind="service_recovery")
            assert record["event"] == "fresh"
            validate_metric_record(record)
        finally:
            service.scheduler.executor.shutdown()
        archives = list(tmp_path.glob("service-journal.jsonl.*.bak"))
        assert len(archives) == 1
        assert replay_journal(archives[0]).unfinished()

    def test_build_service_resume_recovers(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        response = crashed_scheduler_with(sweep_doc(["xz"]),
                                          default_journal_path())
        service = build_service(jobs=1, port=0, resume=True)
        try:
            assert service.recovery is not None
            assert service.recovery["requests_resumed"] == 1
            detail = service.scheduler.request_status(
                response["request_id"])
            assert detail is not None and detail["recovered"] is True
        finally:
            service.stop()

    def test_build_service_unreplayable_journal_raises(self, tmp_path,
                                                       monkeypatch):
        cache_to(monkeypatch, tmp_path)
        path = default_journal_path()
        path.write_text(json.dumps(
            {"schema": JOURNAL_SCHEMA_VERSION + 9,
             "event": "job_completed", "key": "k"}) + "\n")
        with pytest.raises(JournalError):
            build_service(jobs=1, port=0, resume=True)
        # --fresh archives it and starts clean
        service = build_service(jobs=1, port=0, resume=False)
        service.scheduler.executor.shutdown()
        assert not path.exists() or path.stat().st_size == 0


# --------------------------------------------------------------------------
# Service-layer bugfixes
# --------------------------------------------------------------------------

class TestBugfixes:
    def test_metrics_ring_eviction_is_reported(self, tmp_path,
                                               monkeypatch):
        cache_to(monkeypatch, tmp_path)
        telemetry = ServiceTelemetry(capacity=4)
        svc = build_service(jobs=1, port=0, telemetry=telemetry,
                            use_journal=False)
        url = svc.start()
        try:
            client = ServiceClient(url, timeout=10)
            client.wait_healthy()
            for i in range(10):
                telemetry.job_event(f"k{i}", "queued", "r0001-x")
            assert telemetry.oldest_seq == 7
            data = client.metrics()
            assert len(data["records"]) == 4
            assert data["oldest_seq"] == 7
            assert data["gap"] == 6          # seqs 1..6 evicted
            data = client.metrics(since=8)
            assert data["gap"] == 0
            assert [r["seq"] for r in data["records"]] == [9, 10]
            data = client.metrics(since=2)
            assert data["gap"] == 4          # 3..6 evicted
        finally:
            svc.stop()

    def test_oldest_seq_on_empty_ring(self):
        telemetry = ServiceTelemetry(capacity=4)
        assert telemetry.oldest_seq == 1     # nothing evicted yet

    def test_submit_failure_releases_claim(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        scheduler = ServiceScheduler(slots=1)
        try:
            def boom(job):
                raise RuntimeError("executor exploded")
            monkeypatch.setattr(scheduler.executor, "submit", boom)
            response = scheduler.submit_request(
                {"kind": "run", "workload": "xz",
                 "warmup": WARMUP, "measure": MEASURE})
            scheduler.drain(timeout=30)
        finally:
            scheduler.executor.shutdown()
        detail = scheduler.request_status(response["request_id"])
        assert detail["status"] == "failed"
        [node] = detail["nodes_detail"]
        assert "executor submit failed" in node["error"]
        # the claim was released, not leaked: no in-flight entry and the
        # key is claimable again
        assert scheduler.store.stats()["inflight"] == 0
        assert scheduler.store.claim("some-other", "w")[0] == "leader"

    def test_commit_failure_fails_claimants_not_parks(self, tmp_path,
                                                      monkeypatch):
        cache_to(monkeypatch, tmp_path)
        scheduler = ServiceScheduler(slots=1)

        def bad_commit(key, payload):
            raise OSError("disk full")
        monkeypatch.setattr(harness, "commit_payload", bad_commit)
        try:
            response = scheduler.submit_request(
                {"kind": "run", "workload": "xz",
                 "warmup": WARMUP, "measure": MEASURE})
            scheduler.drain(timeout=120)
        finally:
            scheduler.executor.shutdown()
        detail = scheduler.request_status(response["request_id"])
        assert detail["status"] == "failed"
        [node] = detail["nodes_detail"]
        assert "result commit failed" in node["error"]
        assert scheduler.store.stats()["inflight"] == 0

    def raw_request(self, svc, payload: bytes, shutdown_wr=True,
                    timeout=10.0) -> bytes:
        with socket.create_connection((svc.host, svc.port),
                                      timeout=timeout) as sock:
            sock.sendall(payload)
            if shutdown_wr:
                sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    def test_http_negative_content_length_rejected(self, service):
        svc, _client = service
        reply = self.raw_request(
            svc, b"POST /submit HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"negative Content-Length" in reply

    def test_http_oversized_content_length_rejected(self, service):
        svc, _client = service
        reply = self.raw_request(
            svc, b"POST /submit HTTP/1.1\r\n"
                 b"Content-Length: 99999999999\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 413")

    def test_http_short_body_is_clean_400(self, service):
        svc, _client = service
        # client claims 50 bytes, sends 5, hangs up: must get a 400,
        # not a wedged connection or a traceback-driven 500
        reply = self.raw_request(
            svc, b"POST /submit HTTP/1.1\r\nContent-Length: 50\r\n\r\n"
                 b"{...}")
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"5 of 50" in reply


# --------------------------------------------------------------------------
# SIGKILL the daemon mid-sweep, restart, recover (full-process E2E)
# --------------------------------------------------------------------------

def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestSigkillRecovery:
    WORKLOADS = ["xz", "leela", "tc", "deepsjeng"]

    def spawn_daemon(self, port, cache_dir, *extra) -> subprocess.Popen:
        src = Path(harness.__file__).resolve().parents[2]
        env = dict(os.environ,
                   PYTHONPATH=str(src) + os.pathsep
                   + os.environ.get("PYTHONPATH", ""),
                   REPRO_CACHE_DIR=str(cache_dir))
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port),
             "--jobs", "1", *extra],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)

    def test_sigkill_mid_sweep_then_resume(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        port = free_port()
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10)

        daemon = self.spawn_daemon(port, cache_dir)
        try:
            client.wait_healthy(timeout=30)
            response = client.submit(sweep_doc(self.WORKLOADS))
            request_id = response["request_id"]

            # wait until at least one leaf finished, then SIGKILL the
            # daemon mid-sweep (jobs=1 serialises, so work remains)
            deadline = time.monotonic() + 120
            while True:
                counts = client.metrics()["counts"]
                if counts.get("service_job.ok", 0) >= 1:
                    break
                assert time.monotonic() < deadline, counts
                time.sleep(0.05)
        finally:
            os.kill(daemon.pid, signal.SIGKILL)   # the crash under test
            daemon.wait(timeout=30)

        leaf_keys = {make_job(name, config_from_spec({}), WARMUP,
                              MEASURE).key
                     for name in self.WORKLOADS}
        done_before = {p.stem for p in cache_dir.glob("*.json")}
        assert done_before and done_before < leaf_keys

        restarted = self.spawn_daemon(port, cache_dir, "--resume")
        try:
            client.wait_healthy(timeout=30)
            health = client.healthz()
            assert health["recovery"]["requests_resumed"] == 1
            assert health["recovery"]["leaves_rehydrated"] \
                == len(done_before)
            # (>=: a kill between cache commit and journal append can
            # leave one extra stale claim, which rehydrates as a hit)
            assert health["recovery"]["claims_reaped"] \
                >= len(leaf_keys - done_before)

            # the original request id survives the restart and finishes
            detail = client.wait(request_id, timeout=240,
                                 tolerate_unreachable=True)
            assert detail["status"] == "done"
            assert detail["recovered"] is True

            # zero re-executions: the restarted daemon only ever started
            # the leaves that were unfinished at the kill
            metrics = client.metrics()
            started = {r["key"] for r in metrics["records"]
                       if r["kind"] == "service_job"
                       and r["event"] == "started"}
            assert started == leaf_keys - done_before
            assert started.isdisjoint(done_before)
            assert metrics["counts"]["service_job.rehydrated"] \
                == len(done_before)

            # every record — including service_recovery — is schema-valid
            kinds = set()
            for record in metrics["records"]:
                validate_metric_record(record)
                kinds.add(record["kind"])
            assert "service_recovery" in kinds
            # the bounded ring never evicted anything here: gap-free
            assert metrics["gap"] == 0
        finally:
            if restarted.poll() is None:
                restarted.kill()
            restarted.wait(timeout=30)

        # payloads byte-identical to a direct Runner.run() of the same
        # jobs — including the leaves that were re-hydrated, not re-run
        direct_dir = cache_to(monkeypatch, tmp_path / "direct")
        cfg = config_from_spec({})
        jobs = [make_job(name, cfg, WARMUP, MEASURE)
                for name in self.WORKLOADS]
        Runner(jobs=2, progress=False).run(jobs)
        for job in jobs:
            assert (direct_dir / f"{job.key}.json").read_bytes() \
                == (cache_dir / f"{job.key}.json").read_bytes()
