"""Tests for service-layer distributed tracing and metric exposition:
the span model (:mod:`repro.obs.spans`), the request tracer and latency
histograms (:mod:`repro.service.tracing`), the Prometheus text endpoint,
the ``repro spans`` CLI, and the observability satellites (telemetry
mirroring outside the ring lock, ``/metrics?kind=`` validation, client
poll backoff, telemetry-ring wraparound accounting).

Acceptance properties asserted here:

* per-job phase spans (queued + claim_wait + execute + commit) sum
  consistently with the request's end-to-end span (``check_spans``);
* every ``trace_span`` record round-trips the JSONL metric schema and
  whole traces land in the ring only when the request turns terminal;
* ``repro spans --perfetto`` emits a trace accepted by the repo's
  Chrome-trace validator;
* ``GET /metrics/prom`` is valid Prometheus text exposition (0.0.4);
* the span layer adds nothing to cached result payloads — covered by
  the byte-identity assertions in ``test_service.py``, which run with
  the tracer always on.
"""

import json
import math
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.analysis import harness
from repro.analysis.runner import JobExecutor
from repro.obs.metrics import (METRIC_KINDS, using_metric_stream,
                               validate_metric_record)
from repro.obs.spans import (SPAN_NAMES, SpanError, check_spans,
                             render_span_tree, span_tree,
                             spans_to_chrome_trace, summarize_spans,
                             write_spans_chrome_trace)
from repro.obs.exporters import validate_chrome_trace
from repro.service import (LatencyHistogram, PromFormatError,
                           ServiceClient, ServiceError, ServiceScheduler,
                           ServiceTelemetry, build_service,
                           render_prometheus, validate_prometheus_text)

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


def make_trace(phases=(("queued", 10, 20), ("claim_wait", 20, 30),
                       ("execute", 30, 80), ("commit", 80, 90))):
    """A hand-built well-formed trace: root + admission + one job."""
    spans = [{"trace_id": "r1", "span_id": "s0", "parent_id": "",
              "name": "request", "start_us": 0, "duration_us": 100},
             {"trace_id": "r1", "span_id": "s1", "parent_id": "s0",
              "name": "admission", "start_us": 0, "duration_us": 5}]
    for index, (name, start, end) in enumerate(phases, start=2):
        spans.append({"trace_id": "r1", "span_id": f"s{index}",
                      "parent_id": "s0", "name": name,
                      "start_us": start, "duration_us": end - start,
                      "key": "k1", "label": "w/base"})
    return spans


# --------------------------------------------------------------------------
# Span model (repro.obs.spans)
# --------------------------------------------------------------------------

class TestSpanModel:
    def test_tree_reconstruction_and_ordering(self):
        spans = make_trace()
        roots = span_tree(reversed(spans))      # emission order irrelevant
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "request"
        assert [c.name for c in root.children] \
            == ["admission", "queued", "claim_wait", "execute", "commit"]
        assert root.end_us == 100

    def test_duplicate_span_id_rejected(self):
        spans = make_trace()
        spans.append(dict(spans[1]))
        with pytest.raises(SpanError, match="duplicate span id"):
            span_tree(spans)

    def test_unknown_parent_rejected(self):
        spans = make_trace()
        spans[1]["parent_id"] = "s99"
        with pytest.raises(SpanError, match="unknown parent"):
            span_tree(spans)

    def test_check_spans_accepts_wellformed(self):
        roots = check_spans(make_trace())
        assert len(roots) == 1

    def test_check_spans_rejects_escaping_child(self):
        spans = make_trace()
        spans[-1]["start_us"] = 95
        spans[-1]["duration_us"] = 50_000       # ends way past the root
        with pytest.raises(SpanError, match="escapes parent"):
            check_spans(spans)

    def test_check_spans_rejects_job_sum_exceeding_e2e(self):
        # each phase individually fits inside the root window, but the
        # job's phases overlap so their sum exceeds the e2e duration
        spans = make_trace(phases=(("queued", 0, 99), ("execute", 0, 99),
                                   ("claim_wait", 0, 99)))
        with pytest.raises(SpanError, match="exceeding"):
            check_spans(spans, tolerance_us=0)

    def test_check_spans_rejects_missing_fields(self):
        with pytest.raises(SpanError, match="start_us"):
            check_spans([{"trace_id": "r", "span_id": "s0",
                          "parent_id": "", "name": "request",
                          "start_us": -3, "duration_us": 5}])
        with pytest.raises(SpanError, match="duration_us"):
            check_spans([{"trace_id": "r", "span_id": "s0",
                          "parent_id": "", "name": "request",
                          "start_us": 0, "duration_us": 0}])

    def test_render_tree_shows_all_spans_with_branches(self):
        text = render_span_tree(make_trace())
        lines = text.splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("request")
        # every child line carries a branch glyph, including the last
        assert all(line.startswith(("├─ ", "└─ ")) for line in lines[1:])
        assert lines[-1].startswith("└─ ")
        assert "[w/base]" in lines[-1]

    def test_summarize_spans(self):
        summary = summarize_spans(make_trace())
        assert summary["request"] == {"count": 1, "total_us": 100,
                                      "max_us": 100}
        assert summary["execute"]["count"] == 1
        assert summary["execute"]["total_us"] == 50

    def test_chrome_export_validates_and_lanes_jobs(self, tmp_path):
        spans = make_trace()
        doc = spans_to_chrome_trace(spans)
        validate_chrome_trace(doc)
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == len(spans)
        by_name = {e["cat"]: e for e in xs}
        # request/admission on tid 0, the job's phases on their own lane
        assert by_name["request"]["tid"] == 0
        assert by_name["admission"]["tid"] == 0
        job_tids = {e["tid"] for e in xs if e["args"].get("key") == "k1"}
        assert job_tids == {1}

        out = tmp_path / "trace.json"
        write_spans_chrome_trace(out, spans)
        validate_chrome_trace(json.loads(out.read_text()))


# --------------------------------------------------------------------------
# Latency histograms and the Prometheus validator
# --------------------------------------------------------------------------

class TestLatencyHistogram:
    def test_observe_count_sum_percentiles(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.percentile_ms(99) == 0.0
        for ms in (1, 2, 3, 4, 1000):
            hist.observe(ms / 1000.0)
        assert hist.count == 5
        assert hist.sum_s == pytest.approx(1.010)
        assert hist.percentile_ms(50) == 3
        assert hist.percentile_ms(99) == 1000

    def test_cumulative_buckets_monotone_ending_at_inf(self):
        hist = LatencyHistogram()
        for seconds in (0.0005, 0.003, 0.02, 0.7, 40.0, 400.0):
            hist.observe(seconds)
        buckets = hist.cumulative_buckets()
        les = [le for le, _ in buckets]
        counts = [count for _, count in buckets]
        assert les[-1] == math.inf
        assert counts == sorted(counts)
        assert counts[-1] == hist.count
        # the 400 s sample lands only in +Inf
        assert counts[-1] - counts[-2] == 1

    def test_snapshot_fields(self):
        hist = LatencyHistogram()
        hist.observe(0.25)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["sum_s"] == pytest.approx(0.25)
        assert snap["p50_ms"] == 250


class TestPrometheusValidator:
    GOOD = ("# HELP x_total about\n"
            "# TYPE x_total counter\n"
            'x_total{a="b"} 3\n'
            "# HELP lat_seconds about\n"
            "# TYPE lat_seconds histogram\n"
            'lat_seconds_bucket{le="0.1"} 1\n'
            'lat_seconds_bucket{le="+Inf"} 2\n'
            "lat_seconds_sum 1.5\n"
            "lat_seconds_count 2\n")

    def test_accepts_wellformed(self):
        validate_prometheus_text(self.GOOD)

    def test_rejects_missing_trailing_newline(self):
        with pytest.raises(PromFormatError, match="newline"):
            validate_prometheus_text(self.GOOD.rstrip("\n"))

    def test_rejects_sample_without_type(self):
        with pytest.raises(PromFormatError, match="TYPE"):
            validate_prometheus_text("orphan_metric 1\n")

    def test_rejects_nonmonotone_buckets(self):
        bad = self.GOOD.replace('lat_seconds_bucket{le="+Inf"} 2',
                                'lat_seconds_bucket{le="+Inf"} 0')
        with pytest.raises(PromFormatError, match="decreased"):
            validate_prometheus_text(bad)

    def test_rejects_histogram_without_inf_bucket(self):
        bad = ("# TYPE lat_seconds histogram\n"
               'lat_seconds_bucket{le="0.1"} 1\n'
               "lat_seconds_sum 0.05\n"
               "lat_seconds_count 1\n")
        with pytest.raises(PromFormatError, match=r"\+Inf"):
            validate_prometheus_text(bad)

    def test_rejects_count_bucket_mismatch(self):
        bad = self.GOOD.replace("lat_seconds_count 2",
                                "lat_seconds_count 7")
        with pytest.raises(PromFormatError, match="_count"):
            validate_prometheus_text(bad)

    def test_rejects_malformed_label(self):
        with pytest.raises(PromFormatError, match="label"):
            validate_prometheus_text("# TYPE x counter\n"
                                    "x{a=unquoted} 1\n")


# --------------------------------------------------------------------------
# Tracer over the real scheduler (inline, no HTTP)
# --------------------------------------------------------------------------

class TestTracerScheduler:
    def run_compare(self, workloads=("xz",)):
        scheduler = ServiceScheduler(slots=2)
        try:
            response = scheduler.submit_request(compare_doc(workloads))
            scheduler.drain()
        finally:
            scheduler.executor.shutdown()
        return scheduler, response["request_id"]

    def test_request_trace_is_complete_and_consistent(self, tmp_path,
                                                      monkeypatch):
        cache_to(monkeypatch, tmp_path)
        scheduler, request_id = self.run_compare()
        spans = scheduler.tracer.spans(request_id)
        assert spans is not None

        roots = check_spans(spans)              # containment + job sums
        assert len(roots) == 1
        root = roots[0].record
        assert root["name"] == "request"
        assert root["status"] == "done"
        assert root["request_kind"] == "compare"

        names = {s["name"] for s in spans}
        assert names <= set(SPAN_NAMES)
        assert {"request", "admission", "queued", "claim_wait",
                "execute", "commit", "synthesize"} <= names

        # both leaves went through every phase exactly once
        for phase in ("queued", "claim_wait", "execute", "commit"):
            keys = [s["key"] for s in spans if s["name"] == phase]
            assert len(keys) == len(set(keys)) == 2

        # explicit acceptance check: per-job phase sums <= e2e
        e2e = root["duration_us"]
        for key in {s["key"] for s in spans if "key" in s}:
            total = sum(s["duration_us"] for s in spans
                        if s.get("key") == key
                        and s["name"] in ("queued", "claim_wait",
                                          "execute", "commit"))
            assert total <= e2e + 2000

    def test_trace_span_records_emitted_at_terminal_only(self, tmp_path,
                                                         monkeypatch):
        cache_to(monkeypatch, tmp_path)
        scheduler, request_id = self.run_compare()
        records = scheduler.telemetry.records(kind="trace_span")
        assert records and all(r["trace_id"] == request_id
                               for r in records)
        for record in records:
            validate_metric_record(record)
        # the ring batch is the whole trace, in one contiguous seq run
        # (whole traces in the JSONL mirror, never interleaved partials)
        seqs = [r["seq"] for r in records]
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        assert sorted(r["span_id"] for r in records) \
            == sorted(s["span_id"]
                      for s in scheduler.tracer.spans(request_id))

    def test_resubmission_traces_cache_hits(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        scheduler = ServiceScheduler(slots=2)
        try:
            scheduler.submit_request(compare_doc(["xz"]))
            scheduler.drain()
            again = scheduler.submit_request(compare_doc(["xz"]))
            scheduler.drain()
        finally:
            scheduler.executor.shutdown()
        spans = scheduler.tracer.spans(again["request_id"])
        check_spans(spans)
        hits = [s for s in spans if s["name"] == "cache_hit"]
        assert len(hits) == 2
        assert not any(s["name"] == "execute" for s in spans)

    def test_failed_request_trace_carries_error(self, tmp_path,
                                                monkeypatch):
        cache_to(monkeypatch, tmp_path)
        scheduler = ServiceScheduler(slots=2, retries=0)
        try:
            response = scheduler.submit_request(
                compare_doc(["no-such-workload"]))
            scheduler.drain()
        finally:
            scheduler.executor.shutdown()
        spans = scheduler.tracer.spans(response["request_id"])
        check_spans(spans)
        root = next(s for s in spans if s["span_id"] == "s0")
        assert root["status"] == "failed"
        errored = [s for s in spans
                   if s["name"] == "execute" and s.get("error")]
        assert errored

    def test_histograms_populated_and_prometheus_valid(self, tmp_path,
                                                       monkeypatch):
        cache_to(monkeypatch, tmp_path)
        scheduler, _ = self.run_compare()
        snaps = scheduler.tracer.histogram_snapshots()
        assert snaps["queue_wait"]["count"] == 2
        assert snaps["execute"]["count"] == 2
        assert snaps["commit"]["count"] == 2
        assert snaps["e2e"]["count"] == 1
        assert snaps["execute"]["p50_ms"] > 0

        text = render_prometheus(scheduler)
        validate_prometheus_text(text)
        assert "repro_service_events_total" in text
        assert 'repro_service_requests{status="done"} 1' in text
        assert "repro_service_execute_seconds_bucket" in text
        assert "repro_service_request_e2e_seconds_count 1" in text

    def test_job_ending_within_one_step_keeps_its_execute_time(
            self, tmp_path, monkeypatch):
        """A job that finishes inside one executor wait window comes
        back as ``started`` and ``ok`` in the same batch; its execute
        span must still run from the launch, not from when the
        scheduler read the batch."""
        cache_to(monkeypatch, tmp_path)
        step = JobExecutor.step
        batches = []

        def long_step(self, wait=0.02):
            events = step(self, 30.0)
            batches.append([(e.kind, e.job.key) for e in events])
            return events
        monkeypatch.setattr(JobExecutor, "step", long_step)
        scheduler, request_id = self.run_compare()

        assert any(("started", key) in batch
                   for batch in batches for kind, key in batch
                   if kind == "ok")
        spans = scheduler.tracer.spans(request_id)
        check_spans(spans)
        walls = {entry["key"]: entry["wall_time_s"]
                 for entry in scheduler.manifest.jobs}
        executes = [s for s in spans if s["name"] == "execute"]
        assert len(executes) == 2
        for span in executes:
            assert span["duration_us"] >= 0.5 * walls[span["key"]] * 1e6
        assert scheduler.tracer.histogram_snapshots()[
            "execute"]["p50_ms"] > 0

    def test_dedup_waiter_gets_claim_wait_span(self, tmp_path,
                                               monkeypatch):
        cache_to(monkeypatch, tmp_path)
        scheduler = ServiceScheduler(slots=2)
        try:
            first = scheduler.submit_request(sweep_doc(["xz", "leela"]))
            second = scheduler.submit_request(sweep_doc(["leela", "tc"]))
            scheduler.drain()
        finally:
            scheduler.executor.shutdown()
        assert scheduler.telemetry.counts().get("service_job.dedup") == 1
        second_spans = scheduler.tracer.spans(second["request_id"])
        check_spans(second_spans)
        dedup = [s for s in second_spans if s.get("dedup")]
        # the second request either joined the in-flight leela/base
        # execution (dedup claim_wait span) or arrived after it
        # committed (cache_hit) — scheduling order decides
        first_spans = scheduler.tracer.spans(first["request_id"])
        joined = dedup or [s for s in first_spans if s.get("dedup")]
        assert joined and joined[0]["name"] == "claim_wait"

    def test_live_request_serves_provisional_root(self):
        tracer_scheduler = ServiceScheduler(slots=1)
        try:
            tracer = tracer_scheduler.tracer
            tracer.request_admitted("r-live", "sweep", tracer.now_us())
            spans = tracer.spans("r-live")
            root = next(s for s in spans if s["span_id"] == "s0")
            assert root["in_progress"] is True
            assert tracer.spans("r-unknown") is None
        finally:
            tracer_scheduler.executor.shutdown()


# --------------------------------------------------------------------------
# Daemon endpoints: /metrics/prom, /spans, /metrics?kind= (satellite 2)
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


class TestDaemonObservability:
    def test_metrics_prom_scrape(self, service):
        svc, client = service
        request_id = client.submit(compare_doc(["xz"]))["request_id"]
        client.wait(request_id, timeout=120)

        with urllib.request.urlopen(svc.url + "/metrics/prom",
                                    timeout=10) as response:
            content_type = response.headers.get("Content-Type")
            text = response.read().decode("utf-8")
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        validate_prometheus_text(text)
        assert client.metrics_prom() == text \
            or validate_prometheus_text(client.metrics_prom()) is None
        for family in ("repro_service_events_total",
                       "repro_service_store_hits_total",
                       "repro_service_busy_workers",
                       "repro_service_telemetry_ring_occupancy",
                       "repro_service_queue_wait_seconds_bucket",
                       "repro_service_request_e2e_seconds_count"):
            assert family in text

    def test_metrics_unknown_kind_is_400_with_allowed_kinds(self,
                                                            service):
        svc, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.metrics(kind="bogus")
        assert excinfo.value.status == 400
        assert "unknown metric kind" in str(excinfo.value)
        # the body names the allowed vocabulary
        try:
            urllib.request.urlopen(svc.url + "/metrics?kind=bogus",
                                   timeout=10)
        except urllib.error.HTTPError as exc:
            body = json.loads(exc.read().decode())
        assert body["allowed_kinds"] == sorted(METRIC_KINDS)
        # known kinds still filter fine
        assert client.metrics(kind="trace_span")["records"] == []

    def test_spans_endpoint_and_404(self, service):
        svc, client = service
        request_id = client.submit(compare_doc(["xz"]))["request_id"]
        client.wait(request_id, timeout=120)
        payload = client.spans(request_id)
        assert payload["request_id"] == request_id
        assert payload["epoch_unix"] > 0
        check_spans(payload["spans"])
        with pytest.raises(ServiceError) as excinfo:
            client.spans("r-does-not-exist")
        assert excinfo.value.status == 404

    def test_spans_cli_tree_json_and_perfetto(self, service, tmp_path):
        svc, client = service
        request_id = client.submit(compare_doc(["xz"]))["request_id"]
        client.wait(request_id, timeout=120)

        src = Path(harness.__file__).resolve().parents[2]
        env = dict(os.environ,
                   PYTHONPATH=str(src) + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        out_path = tmp_path / "request.trace.json"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "spans", request_id,
             "--url", svc.url, "--perfetto", str(out_path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert "request" in result.stdout
        assert "synthesize" in result.stdout
        validate_chrome_trace(json.loads(out_path.read_text()))

        result = subprocess.run(
            [sys.executable, "-m", "repro", "spans", request_id,
             "--url", svc.url, "--json"],
            capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["request_id"] == request_id
        check_spans(payload["spans"])

        result = subprocess.run(
            [sys.executable, "-m", "repro", "spans", "nope",
             "--url", svc.url],
            capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode != 0
        assert "404" in result.stderr


# --------------------------------------------------------------------------
# Satellite 3: client poll backoff
# --------------------------------------------------------------------------

class TestWaitBackoff:
    def test_wait_backs_off_exponentially_to_cap(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:1")
        polls = {"n": 0}

        def fake_status(request_id):
            polls["n"] += 1
            return {"status": "running" if polls["n"] < 9 else "done"}

        client.status = fake_status
        sleeps = []
        clock = {"t": 0.0}
        monkeypatch.setattr("repro.service.client.time",
                            _FakeTime(clock, sleeps))

        detail = client.wait("r1", timeout=600, poll=0.2, poll_max=2.0)
        assert detail["status"] == "done"
        assert sleeps[0] == pytest.approx(0.2)
        # strictly increasing until the cap, then flat at the cap
        capped = [s for s in sleeps if s == pytest.approx(2.0)]
        rising = sleeps[:len(sleeps) - len(capped)]
        assert rising == sorted(rising)
        assert all(a < b for a, b in zip(rising, rising[1:]))
        assert capped                       # the cap was reached
        assert max(sleeps) <= 2.0 + 1e-9

    def test_wait_timeout_still_raises(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:1")
        client.status = lambda request_id: {"status": "running"}
        sleeps = []
        clock = {"t": 0.0}
        monkeypatch.setattr("repro.service.client.time",
                            _FakeTime(clock, sleeps))
        with pytest.raises(ServiceError, match="still running"):
            client.wait("r1", timeout=5, poll=0.2)


class _FakeTime:
    """time-module stand-in: sleep advances a fake monotonic clock."""

    def __init__(self, clock, sleeps):
        self._clock = clock
        self._sleeps = sleeps

    def monotonic(self):
        return self._clock["t"]

    def sleep(self, seconds):
        self._sleeps.append(seconds)
        self._clock["t"] += seconds


# --------------------------------------------------------------------------
# Satellite 4: telemetry-ring wraparound accounting
# --------------------------------------------------------------------------

class TestRingWraparound:
    def test_eviction_exposes_exact_oldest_seq_and_gap(self):
        telemetry = ServiceTelemetry(capacity=5)
        for index in range(12):
            telemetry.job_event(f"k{index}", "queued", request_id="r1")
        records = telemetry.records()
        assert [r["seq"] for r in records] == [8, 9, 10, 11, 12]
        assert telemetry.seq == 12
        assert telemetry.oldest_seq == 8
        # a poller resuming from since=0 missed exactly 7 records
        assert telemetry.oldest_seq - 0 - 1 == 7
        # resuming from the last record it saw before eviction
        assert telemetry.oldest_seq - 7 - 1 == 0

    def test_empty_ring_oldest_is_next_seq(self):
        telemetry = ServiceTelemetry(capacity=3)
        assert telemetry.oldest_seq == 1
        assert telemetry.occupancy() == 0
        telemetry.job_event("k", "queued", request_id="r1")
        assert telemetry.occupancy() == 1
        assert telemetry.capacity == 3

    def test_wraparound_gap_over_http(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path / "cache")
        # capacity far below one request's record volume (request
        # events + per-job transitions + the trace_span batch), so the
        # ring is guaranteed to wrap while the request runs
        telemetry = ServiceTelemetry(capacity=6)
        svc = build_service(jobs=2, port=0, telemetry=telemetry)
        url = svc.start()
        try:
            client = ServiceClient(url, timeout=10)
            client.wait_healthy()
            request_id = client.submit(compare_doc(["xz"]))["request_id"]
            client.wait(request_id, timeout=120)

            data = client.metrics()
            assert len(data["records"]) == 6
            assert data["seq"] > 6
            expected_oldest = data["seq"] - 6 + 1
            assert data["oldest_seq"] == expected_oldest
            assert data["records"][0]["seq"] == expected_oldest
            assert data["gap"] == expected_oldest - 1

            # resuming exactly at the eviction horizon reports no gap
            caught_up = client.metrics(since=expected_oldest - 1)
            assert caught_up["gap"] == 0
            assert [r["seq"] for r in caught_up["records"]] \
                == list(range(expected_oldest, data["seq"] + 1))
        finally:
            svc.stop()


# --------------------------------------------------------------------------
# Satellite 1: JSONL mirroring happens outside the ring lock
# --------------------------------------------------------------------------

class _ProbeStream:
    """MetricStream stand-in whose emit() proves the ring lock is free
    (a regression test for mirroring-while-holding-the-lock) and
    records what it saw."""

    def __init__(self, telemetry):
        self._telemetry = telemetry
        self.records = []
        self.lock_violations = 0

    def emit(self, kind, **fields):
        if self._telemetry._lock.acquire(blocking=False):
            self._telemetry._lock.release()
        else:
            self.lock_violations += 1
        self.records.append({"kind": kind, **fields})
        return self.records[-1]


class TestMirrorOutsideLock:
    def test_emit_mirrors_outside_ring_lock(self):
        telemetry = ServiceTelemetry()
        probe = _ProbeStream(telemetry)
        with using_metric_stream(probe):
            telemetry.job_event("k1", "queued", request_id="r1")
            telemetry.request_event("r1", "sweep", "accepted", jobs=1)
        assert probe.lock_violations == 0
        assert [r["kind"] for r in probe.records] \
            == ["service_job", "service_request"]
        assert [r["seq"] for r in probe.records] == [1, 2]

    def test_concurrent_emits_mirror_in_seq_order(self):
        telemetry = ServiceTelemetry()
        probe = _ProbeStream(telemetry)
        threads = [threading.Thread(
            target=lambda: [telemetry.job_event("k", "queued",
                                                request_id="r")
                            for _ in range(50)])
            for _ in range(4)]
        with using_metric_stream(probe):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert probe.lock_violations == 0
        seqs = [r["seq"] for r in probe.records]
        assert seqs == sorted(seqs) == list(range(1, 201))

    def test_ring_and_mirror_see_identical_records(self):
        telemetry = ServiceTelemetry()
        probe = _ProbeStream(telemetry)
        with using_metric_stream(probe):
            telemetry.span_event(trace_id="r1", span_id="s0",
                                 parent_id="", name="request",
                                 start_us=0, duration_us=10)
        ring = telemetry.records(kind="trace_span")
        assert len(ring) == len(probe.records) == 1
        mirrored = dict(probe.records[0])
        mirrored.pop("kind")
        buffered = {k: v for k, v in ring[0].items()
                    if k not in ("schema", "kind")}
        assert mirrored == buffered
