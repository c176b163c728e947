"""Request tracing and metric aggregation for the service tier.

Three pieces, layered on the span taxonomy of :mod:`repro.obs.spans`:

* :class:`RequestTracer` — stitches the scheduler's instrumentation
  points (admission, per-job queued / claim-wait / execute / commit,
  synthesis, terminal) into one span tree per request. Spans are
  buffered per trace while the request runs (``/spans/<id>`` serves
  them live) and emitted as a batch of durable ``trace_span`` metric
  records through :class:`~repro.service.telemetry.ServiceTelemetry`
  when the request turns terminal — so the JSONL mirror always carries
  whole traces.
* :class:`LatencyHistogram` — a streaming latency distribution built on
  the repo's sparse :class:`~repro.common.statistics.Histogram`
  (millisecond buckets, exact running sum). The tracer maintains one
  per phase (queue wait, claim wait, execute, commit) plus request
  end-to-end, feeding both the p50/p90/p99 summaries and the
  Prometheus exposition.
* :func:`render_prometheus` / :func:`validate_prometheus_text` — the
  text exposition behind ``GET /metrics/prom`` and its format checker
  (used by the tests and CI's service-smoke job). Exposed series:
  event counters (``repro_service_events_total``), store counters,
  scheduler gauges (per-request ready-deque depth, busy workers,
  in-flight claims, telemetry-ring occupancy, steal count — the
  scheduler-fairness signal), and the latency histograms in standard
  cumulative-``le`` form.

Everything here is wall-clock-side observability: nothing touches job
payloads or cache entries, so service results stay byte-identical to a
direct ``Runner.run()`` (asserted by the service test suite).
"""

from __future__ import annotations

import math
import re
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.common.statistics import Histogram, StatisticsError

__all__ = ["LatencyHistogram", "PROM_BUCKETS_S", "PromFormatError",
           "RequestTracer", "render_prometheus",
           "validate_prometheus_text"]

#: cumulative histogram boundaries for the Prometheus exposition, in
#: seconds; tuned for simulation jobs (milliseconds to minutes)
PROM_BUCKETS_S = (0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
                  5.0, 10.0, 30.0, 60.0, 120.0, 300.0)

#: finished traces retained for /spans and `repro spans` after the
#: request turns terminal (oldest evicted first)
_MAX_DONE_TRACES = 256


class LatencyHistogram:
    """Streaming latency distribution: ms-bucket counts + exact sum.

    Buckets are whole milliseconds in the sparse
    :class:`~repro.common.statistics.Histogram` (so percentiles come
    from the existing nearest-rank implementation), while the running
    sum keeps full float precision for the Prometheus ``_sum`` series.
    Not thread-safe on its own; the tracer serialises access.
    """

    __slots__ = ("_hist", "sum_s")

    def __init__(self) -> None:
        self._hist = Histogram()
        self.sum_s = 0.0

    def observe(self, seconds: float) -> None:
        self._hist.add(int(seconds * 1000.0))
        self.sum_s += seconds

    @property
    def count(self) -> int:
        return self._hist.total()

    def percentile_ms(self, p: float) -> float:
        """Nearest-rank percentile in milliseconds; 0.0 when empty."""
        try:
            return self._hist.percentile(p)
        except StatisticsError:
            return 0.0

    def cumulative_buckets(self,
                           boundaries_s: Tuple[float, ...] = PROM_BUCKETS_S
                           ) -> List[Tuple[float, int]]:
        """``[(le_seconds, cumulative_count), ...]`` ending at +Inf."""
        items = sorted(self._hist.buckets.items())
        out: List[Tuple[float, int]] = []
        running = 0
        index = 0
        for le in boundaries_s:
            le_ms = le * 1000.0
            while index < len(items) and items[index][0] <= le_ms:
                running += items[index][1]
                index += 1
            out.append((le, running))
        out.append((math.inf, self.count))
        return out

    def snapshot(self) -> dict:
        return {"count": self.count, "sum_s": round(self.sum_s, 6),
                "p50_ms": self.percentile_ms(50),
                "p90_ms": self.percentile_ms(90),
                "p99_ms": self.percentile_ms(99)}


class _JobTiming:
    """Per-key phase timestamps while a job moves through the scheduler."""

    __slots__ = ("trace_id", "label", "queued_at", "dispatch_at",
                 "exec_start", "waiters")

    def __init__(self, trace_id: str, label: str) -> None:
        self.trace_id = trace_id
        self.label = label
        self.queued_at: Optional[int] = None
        self.dispatch_at: Optional[int] = None
        self.exec_start: Optional[int] = None
        # dedup claimants joining this key's in-flight execution:
        # (their request id, join timestamp)
        self.waiters: List[Tuple[str, int]] = []


class _Trace:
    """One live request's accumulating span list."""

    __slots__ = ("request_id", "kind", "start_us", "spans", "_next")

    def __init__(self, request_id: str, kind: str, start_us: int) -> None:
        self.request_id = request_id
        self.kind = kind
        self.start_us = start_us
        self.spans: List[dict] = []
        self._next = 1                      # "s0" is the root

    def add(self, name: str, start_us: int, end_us: int,
            **extra) -> dict:
        record = {"trace_id": self.request_id,
                  "span_id": f"s{self._next}", "parent_id": "s0",
                  "name": name, "start_us": max(0, start_us),
                  "duration_us": max(1, end_us - start_us)}
        record.update(extra)
        self._next += 1
        self.spans.append(record)
        return record

    def root(self, end_us: int, **extra) -> dict:
        record = {"trace_id": self.request_id, "span_id": "s0",
                  "parent_id": "", "name": "request",
                  "start_us": self.start_us,
                  "duration_us": max(1, end_us - self.start_us),
                  "request_kind": self.kind}
        record.update(extra)
        return record


class RequestTracer:
    """Stitch scheduler instrumentation into per-request span trees.

    All mutation entry points are called by the scheduler with its lock
    held; the tracer still takes its own lock so the daemon thread can
    read ``/spans`` and ``/metrics/prom`` without touching scheduler
    state. Lock order is tracer -> telemetry (never the reverse).
    """

    def __init__(self, telemetry=None,
                 max_done: int = _MAX_DONE_TRACES) -> None:
        self._telemetry = telemetry
        self._lock = threading.Lock()
        self._epoch_mono = time.monotonic()
        #: wall-clock time of ``start_us == 0``, for humans correlating
        #: spans with external logs
        self.epoch_unix = time.time()
        self._live: Dict[str, _Trace] = {}
        self._done: "OrderedDict[str, List[dict]]" = OrderedDict()
        self._max_done = max(1, max_done)
        self._jobs: Dict[str, _JobTiming] = {}
        self.histograms: Dict[str, LatencyHistogram] = {
            name: LatencyHistogram()
            for name in ("queue_wait", "claim_wait", "execute",
                         "commit", "e2e")}

    def now_us(self) -> int:
        return self.to_us(time.monotonic())

    def to_us(self, monotonic: float) -> int:
        """A ``time.monotonic()`` value on this tracer's clock."""
        return int((monotonic - self._epoch_mono) * 1e6)

    # -- instrumentation points (scheduler thread) -------------------------

    def request_admitted(self, request_id: str, kind: str,
                         start_us: int, recovered: bool = False) -> None:
        with self._lock:
            trace = _Trace(request_id, kind, start_us)
            self._live[request_id] = trace
            extra = {"recovered": True} if recovered else {}
            trace.add("admission", start_us, self.now_us(), **extra)

    def job_cache_hit(self, request_id: str, key: str, label: str,
                      rehydrated: bool = False) -> None:
        with self._lock:
            trace = self._live.get(request_id)
            if trace is None:
                return
            now = self.now_us()
            trace.add("rehydrated" if rehydrated else "cache_hit",
                      now, now + 1, key=key, label=label)

    def job_queued(self, request_id: str, key: str, label: str) -> None:
        with self._lock:
            timing = _JobTiming(request_id, label)
            timing.queued_at = self.now_us()
            self._jobs[key] = timing

    def job_dedup(self, request_id: str, key: str, label: str) -> None:
        """``request_id`` joined another request's in-flight execution
        of ``key``; its claim-wait span runs until that leader settles."""
        with self._lock:
            timing = self._jobs.get(key)
            if timing is None:
                # leader is mid-flight but untracked (e.g. tracer
                # attached after the fact): track waiters anyway
                timing = _JobTiming("", label)
                self._jobs[key] = timing
            timing.waiters.append((request_id, self.now_us()))

    def job_dispatched(self, key: str,
                       stolen_by: Optional[str] = None) -> None:
        """``key`` left its ready deque for the executor; ``stolen_by``
        names the thief request when the dispatch was a steal (the
        queued span always lives in the claiming request's trace)."""
        with self._lock:
            timing = self._jobs.get(key)
            if timing is None:
                return
            now = self.now_us()
            timing.dispatch_at = now
            if timing.queued_at is not None:
                trace = self._live.get(timing.trace_id)
                if trace is not None:
                    extra = {"key": key, "label": timing.label}
                    if stolen_by is not None:
                        extra["stolen_by"] = stolen_by
                    trace.add("queued", timing.queued_at, now, **extra)
                self.histograms["queue_wait"].observe(
                    (now - timing.queued_at) / 1e6)
                timing.queued_at = None

    def job_started(self, key: str, started_at: float) -> None:
        """``key``'s worker launched at ``started_at`` (a
        ``time.monotonic()`` value). The executor reports a launch after
        the fact, in the same batch as the outcome when the job ends
        within one step, so the launch time, not the time this call is
        made, opens the execute span."""
        with self._lock:
            timing = self._jobs.get(key)
            if timing is None:
                return
            launched = self.to_us(started_at)
            if timing.exec_start is None:
                timing.exec_start = launched
            if timing.dispatch_at is not None:
                trace = self._live.get(timing.trace_id)
                if trace is not None:
                    trace.add("claim_wait", timing.dispatch_at, launched,
                              key=key, label=timing.label)
                self.histograms["claim_wait"].observe(
                    (launched - timing.dispatch_at) / 1e6)
                timing.dispatch_at = None

    def job_finished(self, key: str, ok: bool = True,
                     commit_s: float = 0.0,
                     error: Optional[str] = None) -> None:
        """Terminal outcome of the one execution of ``key``: closes the
        owner's execute (and commit) spans and every dedup claimant's
        claim-wait span."""
        with self._lock:
            timing = self._jobs.pop(key, None)
            if timing is None:
                return
            now = self.now_us()
            commit_us = int(commit_s * 1e6)
            trace = self._live.get(timing.trace_id)
            if timing.exec_start is not None:
                exec_end = max(timing.exec_start + 1, now - commit_us)
                extra = {"key": key, "label": timing.label}
                if error:
                    extra["error"] = error
                if trace is not None:
                    trace.add("execute", timing.exec_start, exec_end,
                              **extra)
                    if ok and commit_us:
                        trace.add("commit", exec_end, now, key=key,
                                  label=timing.label)
                self.histograms["execute"].observe(
                    (exec_end - timing.exec_start) / 1e6)
                if ok:
                    self.histograms["commit"].observe(commit_s)
            elif trace is not None:
                # never reached a worker (submit failed): instant marker
                trace.add("failed", now, now + 1, key=key,
                          label=timing.label, error=error or "")
            for waiter_id, joined_at in timing.waiters:
                waiter_trace = self._live.get(waiter_id)
                if waiter_trace is not None:
                    extra = {"key": key, "label": timing.label,
                             "dedup": True}
                    if error:
                        extra["error"] = error
                    waiter_trace.add("claim_wait", joined_at, now,
                                     **extra)
                self.histograms["claim_wait"].observe(
                    (now - joined_at) / 1e6)

    def job_failed_instant(self, request_id: str, key: str, label: str,
                           error: str) -> None:
        """A leaf settled as failed without this process executing it
        (journal-replayed terminal outcome): an instant marker span."""
        with self._lock:
            trace = self._live.get(request_id)
            if trace is None:
                return
            now = self.now_us()
            trace.add("failed", now, now + 1, key=key, label=label,
                      error=error)

    def synthesized(self, request_id: str, key: str, label: str,
                    start_us: int, error: Optional[str] = None) -> None:
        with self._lock:
            trace = self._live.get(request_id)
            if trace is None:
                return
            extra = {"key": key, "label": label}
            if error:
                extra["error"] = error
            trace.add("synthesize", start_us, self.now_us(), **extra)

    def request_finished(self, request_id: str, status: str) -> None:
        """Close the root span, settle the e2e histogram, persist the
        finished trace, and emit every span as a ``trace_span`` metric
        record (ring + JSONL mirror)."""
        with self._lock:
            trace = self._live.pop(request_id, None)
            if trace is None:
                return
            now = self.now_us()
            root = trace.root(now, status=status)
            spans = [root] + trace.spans
            self.histograms["e2e"].observe(
                root["duration_us"] / 1e6)
            self._done[request_id] = spans
            while len(self._done) > self._max_done:
                self._done.popitem(last=False)
            telemetry = self._telemetry
        if telemetry is not None:
            for span in spans:
                telemetry.span_event(**span)

    # -- consumers (any thread) -------------------------------------------

    def spans(self, request_id: str) -> Optional[List[dict]]:
        """The request's span records (finished traces verbatim; live
        traces get a provisional in-progress root), or ``None``."""
        with self._lock:
            done = self._done.get(request_id)
            if done is not None:
                return list(done)
            trace = self._live.get(request_id)
            if trace is None:
                return None
            root = trace.root(self.now_us(), in_progress=True)
            return [root] + list(trace.spans)

    def histogram_snapshots(self) -> Dict[str, dict]:
        with self._lock:
            return {name: hist.snapshot()
                    for name, hist in self.histograms.items()}

    def prom_histograms(self) -> List[Tuple[str, str, List[Tuple[float,
                                                                 int]],
                                            float]]:
        """``(phase, help, cumulative buckets, sum_s)`` per histogram,
        snapshotted under the tracer lock for a consistent scrape."""
        out = []
        docs = {
            "queue_wait": "Ready-deque residence before dispatch",
            "claim_wait": "Dispatch-to-worker-start wait, and dedup "
                          "waits on another request's execution",
            "execute": "Worker wall time per job execution",
            "commit": "Result-store commit (cache write) time",
            "e2e": "Request end-to-end latency, admission to terminal",
        }
        with self._lock:
            for name, hist in self.histograms.items():
                out.append((name, docs[name], hist.cumulative_buckets(),
                            hist.sum_s))
        return out


# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------

def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"') \
                .replace("\n", r"\n")


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_prometheus(scheduler) -> str:
    """Render one scrape of the scheduler's state as Prometheus text
    exposition (version 0.0.4 content type).

    Families: ``repro_service_events_total`` (every telemetry
    ``<kind>.<event>`` counter), store counters, scheduler gauges
    (per-request ready depth, busy workers, executor pending/slots,
    in-flight claims, telemetry-ring occupancy/capacity, live request
    counts by status, steal total), and the five latency histograms in
    cumulative-``le`` form. The output passes
    :func:`validate_prometheus_text`.
    """
    lines: List[str] = []

    def family(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    counts = scheduler.telemetry.counts()
    family("repro_service_events_total", "counter",
           "Service telemetry records by kind and event")
    for label in sorted(counts):
        kind, _, event = label.partition(".")
        lines.append(
            f'repro_service_events_total{{kind="{_escape_label(kind)}",'
            f'event="{_escape_label(event)}"}} {counts[label]}')

    steals = counts.get("service_job.steal", 0)
    family("repro_service_steals_total", "counter",
           "Jobs dispatched from another request's ready deque "
           "(scheduler fairness signal)")
    lines.append(f"repro_service_steals_total {steals}")

    store = scheduler.store.stats()
    for name, help_text in (("hits", "Result-store cache hits"),
                            ("misses", "Result-store misses (leader "
                                       "claims)"),
                            ("dedups", "In-flight single-flight joins"),
                            ("corrupt", "Corrupt cache entries treated "
                                        "as misses")):
        metric = f"repro_service_store_{name}_total"
        family(metric, "counter", help_text)
        lines.append(f"{metric} {store[name]}")

    gauges = scheduler.gauges()
    family("repro_service_ready_depth", "gauge",
           "Ready-deque depth per running request")
    for request_id, depth in sorted(gauges["ready_depth"].items()):
        lines.append(
            f'repro_service_ready_depth{{request_id='
            f'"{_escape_label(request_id)}"}} {depth}')
    for metric, key, help_text in (
            ("repro_service_busy_workers", "busy_workers",
             "Worker processes currently executing a job"),
            ("repro_service_executor_pending", "executor_pending",
             "Jobs queued inside the executor awaiting a worker"),
            ("repro_service_executor_slots", "executor_slots",
             "Total worker slots"),
            ("repro_service_inflight_claims", "inflight_claims",
             "Single-flight claims currently executing"),
            ("repro_service_telemetry_ring_occupancy", "ring_occupancy",
             "Telemetry ring records currently buffered"),
            ("repro_service_telemetry_ring_capacity", "ring_capacity",
             "Telemetry ring capacity")):
        family(metric, "gauge", help_text)
        lines.append(f"{metric} {gauges[key]}")
    family("repro_service_requests", "gauge",
           "Requests known to the scheduler, by status")
    for status in ("running", "done", "failed"):
        lines.append(
            f'repro_service_requests{{status="{status}"}} '
            f'{gauges["requests"].get(status, 0)}')

    for phase, help_text, buckets, sum_s in \
            scheduler.tracer.prom_histograms():
        metric = (f"repro_service_{phase}_seconds" if phase != "e2e"
                  else "repro_service_request_e2e_seconds")
        family(metric, "histogram", help_text)
        count = 0
        for le, count in buckets:
            lines.append(
                f'{metric}_bucket{{le="{_fmt(le)}"}} {count}')
        lines.append(f"{metric}_sum {sum_s!r}")
        lines.append(f"{metric}_count {count}")
    return "\n".join(lines) + "\n"


class PromFormatError(ValueError):
    """Prometheus text exposition violates the format contract."""


_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^{}]*)\})?'
    r' (?P<value>[^ ]+)$')
_LABEL_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def validate_prometheus_text(text: str) -> None:
    """Check Prometheus text-format structure; raises PromFormatError.

    Enforced: declared ``# TYPE`` for every sampled family (histogram
    samples may use the ``_bucket``/``_sum``/``_count`` suffixes of a
    declared histogram), parseable values, well-formed labels, and —
    for histograms — monotonically non-decreasing cumulative buckets
    ending in ``le="+Inf"`` whose count equals the ``_count`` sample.
    """
    if not text.endswith("\n"):
        raise PromFormatError("exposition must end with a newline")
    types: Dict[str, str] = {}
    hist_buckets: Dict[str, List[Tuple[float, float]]] = {}
    hist_counts: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise PromFormatError(
                    f"line {lineno}: comment must be # HELP or # TYPE")
            if parts[1] == "TYPE":
                mtype = parts[3] if len(parts) > 3 else ""
                if mtype not in ("counter", "gauge", "histogram",
                                 "summary", "untyped"):
                    raise PromFormatError(
                        f"line {lineno}: unknown metric type {mtype!r}")
                types[parts[2]] = mtype
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise PromFormatError(f"line {lineno}: malformed sample "
                                  f"{line!r}")
        name = match.group("name")
        labels = match.group("labels")
        label_map: Dict[str, str] = {}
        if labels:
            for pair in labels.split(","):
                if not _LABEL_RE.match(pair):
                    raise PromFormatError(
                        f"line {lineno}: malformed label {pair!r}")
                lname, _, lvalue = pair.partition("=")
                label_map[lname] = lvalue[1:-1]
        value_text = match.group("value")
        try:
            value = float(value_text.replace("+Inf", "inf")
                          .replace("-Inf", "-inf"))
        except ValueError:
            raise PromFormatError(
                f"line {lineno}: unparseable value {value_text!r}") \
                from None
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[:-len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                family = base
                break
        if family not in types:
            raise PromFormatError(
                f"line {lineno}: sample {name!r} has no preceding "
                f"# TYPE declaration")
        if name.endswith("_bucket") and types.get(family) == "histogram":
            le_text = label_map.get("le")
            if le_text is None:
                raise PromFormatError(
                    f"line {lineno}: histogram bucket without le label")
            le = math.inf if le_text == "+Inf" else float(le_text)
            hist_buckets.setdefault(family, []).append((le, value))
        elif name.endswith("_count") and types.get(family) == "histogram":
            hist_counts[family] = value
    for family, buckets in hist_buckets.items():
        previous_le, previous_count = -math.inf, -1.0
        for le, count in buckets:
            if le <= previous_le:
                raise PromFormatError(
                    f"{family}: bucket le values must increase")
            if count < previous_count:
                raise PromFormatError(
                    f"{family}: cumulative bucket counts decreased")
            previous_le, previous_count = le, count
        if buckets[-1][0] != math.inf:
            raise PromFormatError(
                f"{family}: histogram must end with an le=\"+Inf\" "
                f"bucket")
        if family in hist_counts \
                and hist_counts[family] != buckets[-1][1]:
            raise PromFormatError(
                f"{family}: _count does not equal the +Inf bucket")
