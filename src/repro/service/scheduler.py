"""DAG scheduling over the runner's worker pool, with work stealing.

One :class:`ServiceScheduler` owns one
:class:`~repro.analysis.runner.JobExecutor` (the PR-1 worker processes,
with their per-job timeout / bounded-retry / failure-isolation semantics
intact) and any number of live requests, each expanded into a
:class:`~repro.service.dag.JobGraph`.

Scheduling model:

* Each request owns a **ready queue** (a deque of leaf nodes whose
  single-flight claim made this request the leader).
* Pool slots are divided fairly: with ``R`` active requests each gets a
  share of ``ceil(slots / R)``. A request under its share dispatches
  from the **head** of its own queue; a request under its share whose
  queue is empty **steals from the tail** of the longest other queue
  (classic work stealing — the thief takes the coldest work), which
  keeps the pool saturated when one request drains before another.
* Identical leaves across requests are deduplicated in flight by the
  :class:`~repro.service.store.ResultStore`'s single-flight claims: one
  execution, and every claimant's node completes from the same payload.
* A terminal job failure marks the node failed in every claiming
  request and poisons its transitive dependents there; independent
  branches (and unrelated requests) continue.

Threading: the scheduler mutates shared state only under its lock, and
the executor is touched only by the scheduling thread (or by
:meth:`drain` when no thread is running). ``submit_request`` — called
from the daemon's asyncio thread — only parses, claims, and enqueues,
then wakes the scheduling thread.

Durability: when constructed with a
:class:`~repro.service.journal.RequestJournal`, every admission (the
canonical request document, fsync'd *before* any state is registered),
leader claim, terminal job outcome, and request terminal status is
journalled; :meth:`recover` replays a prior process's journal on
startup — re-hydrating completed leaves from the content-addressed
store, reaping the dead process's stale claims, and re-enqueueing only
genuinely unfinished work. See :mod:`repro.service.journal`.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from math import ceil
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.analysis.runner import JobEvent, JobExecutor, RunManifest
from repro.service.dag import (JobGraph, Node, evaluate_synthesis,
                               expand_request)
from repro.service.journal import JournalReplay, RequestJournal
from repro.service.requests import (ServiceRequest, make_request_id,
                                    parse_request)
from repro.service.store import ResultStore
from repro.service.telemetry import ServiceTelemetry
from repro.service.tracing import RequestTracer

__all__ = ["SchedulerError", "ServiceScheduler"]


class SchedulerError(RuntimeError):
    """Internal scheduler failure (e.g. a drain that never converges)."""


@dataclass
class _RequestState:
    request_id: str
    request: ServiceRequest
    graph: JobGraph
    status: str = "running"        # "running" | "done" | "failed"
    recovered: bool = False        # re-admitted by journal replay
    submitted: float = field(default_factory=time.monotonic)

    def summary(self) -> dict:
        out = {"request_id": self.request_id,
               "kind": self.request.kind,
               "status": self.status,
               "nodes": self.graph.counts()}
        if self.recovered:
            out["recovered"] = True
        return out


class ServiceScheduler:
    """Schedule request DAGs onto one worker pool (see module docstring).

    Drive it either with :meth:`start`/:meth:`stop` (a background
    scheduling thread, as the daemon does) or synchronously with
    :meth:`drain` (tests, one-shot embedding). Never both at once.
    """

    def __init__(self, slots: Optional[int] = None,
                 timeout: Optional[float] = None, retries: int = 1,
                 use_cache: bool = True,
                 store: Optional[ResultStore] = None,
                 telemetry: Optional[ServiceTelemetry] = None,
                 journal: Optional[RequestJournal] = None) -> None:
        self.manifest = RunManifest(meta={"service": True})
        self.executor = JobExecutor(slots, timeout, retries,
                                    manifest=self.manifest)
        self.store = store if store is not None \
            else ResultStore(use_disk=use_cache)
        self.telemetry = telemetry if telemetry is not None \
            else ServiceTelemetry()
        self.tracer = RequestTracer(self.telemetry)
        self.journal = journal
        self._lock = threading.RLock()
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._requests: Dict[str, _RequestState] = {}
        self._queues: Dict[str, Deque[Node]] = {}
        self._in_use: Dict[str, int] = {}
        self._running_owner: Dict[str, str] = {}   # job key -> dispatcher
        self._seq = 0

    # -- submission (any thread) ------------------------------------------

    def submit_request(self, doc: dict) -> dict:
        """Parse, expand, claim, and enqueue one request document.

        Raises :class:`~repro.service.requests.RequestError` on a
        malformed document; returns the acceptance response.
        """
        admitted_us = self.tracer.now_us()
        request = parse_request(doc)
        graph = expand_request(request)
        with self._lock:
            self._seq += 1
            request_id = make_request_id(self._seq, request.doc)
            # journal the admission *before* registering any state: if
            # the fsync'd append fails the submission fails whole, and
            # once it succeeds a crash at any later point can recover
            # the request (its canonical doc re-expands the same
            # content-addressed DAG)
            if self.journal is not None:
                self.journal.request_admitted(request_id, self._seq,
                                              request.doc)
            state = _RequestState(request_id, request, graph)
            self._requests[request_id] = state
            self._queues[request_id] = deque()
            self._in_use[request_id] = 0
            leaves = graph.leaves()
            self.telemetry.request_event(request_id, request.kind,
                                         "accepted", jobs=len(leaves))
            self.tracer.request_admitted(request_id, request.kind,
                                         admitted_us)
            for node in leaves:
                self._claim_leaf(request_id, node)
            self._advance(state)
            response = {
                "request_id": request_id,
                "status": state.status,
                "kind": request.kind,
                "jobs": len(leaves),
                "nodes": len(graph.nodes),
                "counts": graph.counts(),
            }
        self._wake.set()
        return response

    def _claim_leaf(self, request_id: str, node: Node,
                    recovered: bool = False) -> None:
        status, payload = self.store.claim(node.key, (request_id, node.key))
        if status == "hit":
            node.state = "done"
            node.cache_hit = True
            node.recovered = recovered
            self.telemetry.job_event(
                node.key, "rehydrated" if recovered else "cache_hit",
                request_id)
            self.tracer.job_cache_hit(request_id, node.key, node.label,
                                      rehydrated=recovered)
        elif status == "wait":
            # another request's claim is already executing this key:
            # join as a waiter, do not queue a second execution
            node.state = "queued"
            self.telemetry.job_event(node.key, "dedup", request_id)
            self.tracer.job_dedup(request_id, node.key, node.label)
        else:
            node.state = "queued"
            self._queues[request_id].append(node)
            self._journal_safe("job_claimed", node.key, request_id)
            self.telemetry.job_event(
                node.key, "requeued" if recovered else "queued",
                request_id)
            self.tracer.job_queued(request_id, node.key, node.label)

    # -- restart recovery --------------------------------------------------

    def recover(self, replay: JournalReplay) -> dict:
        """Rebuild every unfinished request from a journal replay.

        For each in-flight request the canonical document is re-parsed
        and re-expanded into the identical content-addressed
        :class:`JobGraph` (same request id, same admission seq). Leaves
        are then settled against the replay:

        * a key the journal marked failed replays as a failed node and
          poisons its dependents (terminal outcomes are not retried);
        * every other leaf goes through the normal single-flight claim,
          so completed work is **re-hydrated** from the content-addressed
          store — zero re-execution, byte-identical payloads — and only
          genuinely unfinished leaves are **re-enqueued**;
        * leader claims left by the dead process are implicitly reaped
          (claims are per-process; the count is reported for telemetry).

        Returns the recovery stats dict, also emitted as a
        ``service_recovery`` metric record.
        """
        stale = replay.stale_claims()
        stats = {"requests_resumed": 0, "requests_already_done": 0,
                 "requests_unreplayable": 0, "leaves_rehydrated": 0,
                 "leaves_requeued": 0, "failures_replayed": 0,
                 "claims_reaped": len(stale)}
        with self._lock:
            self._seq = max(self._seq, replay.max_seq)
            for rep in replay.requests.values():
                if not rep.unfinished:
                    stats["requests_already_done"] += 1
                    continue
                resumed_us = self.tracer.now_us()
                try:
                    request = parse_request(rep.doc)
                    graph = expand_request(request)
                except Exception as exc:
                    # a journalled doc this build can no longer parse
                    # (schema drift): drop it rather than refuse to start
                    stats["requests_unreplayable"] += 1
                    self.telemetry.request_event(
                        rep.request_id, str(rep.doc.get("kind", "?")),
                        "unreplayable", jobs=0, error=str(exc))
                    continue
                state = _RequestState(rep.request_id, request, graph,
                                      recovered=True)
                self._requests[rep.request_id] = state
                self._queues[rep.request_id] = deque()
                self._in_use[rep.request_id] = 0
                # re-admit into the *new* journal (the replayed one was
                # archived), preserving the original admission seq so the
                # request id stays stable across any number of restarts
                if self.journal is not None:
                    self.journal.request_admitted(rep.request_id, rep.seq,
                                                  request.doc)
                self.telemetry.request_event(rep.request_id, request.kind,
                                             "recovered",
                                             jobs=len(graph.leaves()))
                self.tracer.request_admitted(rep.request_id, request.kind,
                                             resumed_us, recovered=True)
                for node in graph.leaves():
                    if node.key in replay.failed:
                        node.state = "failed"
                        node.recovered = True
                        node.error = replay.failed[node.key] \
                            or "failed before restart"
                        stats["failures_replayed"] += 1
                        self._journal_safe("job_failed", node.key,
                                           node.error)
                        self.telemetry.job_event(node.key, "failed",
                                                 rep.request_id,
                                                 error=node.error)
                        self.tracer.job_failed_instant(
                            rep.request_id, node.key, node.label,
                            node.error)
                        self._poison_from(state, node.key)
                    else:
                        self._claim_leaf(rep.request_id, node,
                                         recovered=True)
                        if node.state == "done":
                            stats["leaves_rehydrated"] += 1
                        else:
                            stats["leaves_requeued"] += 1
                stats["requests_resumed"] += 1
                self._advance(state)
        self.telemetry.recovery_event(
            "resumed",
            requests_resumed=stats["requests_resumed"],
            leaves_rehydrated=stats["leaves_rehydrated"],
            leaves_requeued=stats["leaves_requeued"],
            claims_reaped=stats["claims_reaped"],
            requests_already_done=stats["requests_already_done"],
            failures_replayed=stats["failures_replayed"])
        self._wake.set()
        return stats

    # -- dispatch and work stealing ---------------------------------------

    def _pick(self) -> Optional[Tuple[str, Node, Optional[str]]]:
        """Choose the next (dispatcher, node, stolen_from) to launch."""
        active = [rid for rid, st in self._requests.items()
                  if st.status == "running"]
        if not active:
            return None
        share = max(1, ceil(self.executor.slots / len(active)))
        for rid in active:
            if self._in_use[rid] < share and self._queues[rid]:
                return rid, self._queues[rid].popleft(), None
        victims = sorted((rid for rid in active if self._queues[rid]),
                         key=lambda rid: -len(self._queues[rid]))
        if not victims:
            return None
        thief = next((rid for rid in active
                      if self._in_use[rid] < share
                      and not self._queues[rid]), None)
        if thief is not None:
            # steal from the tail of the longest queue
            return thief, self._queues[victims[0]].pop(), victims[0]
        # every request is at its share: plain FIFO from the longest queue
        return victims[0], self._queues[victims[0]].popleft(), None

    def _dispatch(self) -> None:
        while self.executor.free_slots > 0:
            pick = self._pick()
            if pick is None:
                return
            rid, node, victim = pick
            node.state = "running"
            self._running_owner[node.key] = rid
            self._in_use[rid] += 1
            try:
                self.executor.submit(node.job)
            except Exception as exc:
                # leader raised between claim() and execution: release
                # the single-flight claim and fail every claimant —
                # a leaked claim would park the waiters forever
                self._running_owner.pop(node.key, None)
                self._in_use[rid] = max(0, self._in_use[rid] - 1)
                error = f"executor submit failed: {exc}"
                self._journal_safe("job_failed", node.key, error)
                self.telemetry.job_event(node.key, "failed", rid,
                                         error=error)
                self.tracer.job_finished(node.key, ok=False, error=error)
                self._fail_waiters(self.store.release(node.key), error)
                continue
            self.tracer.job_dispatched(node.key,
                                       stolen_by=rid if victim else None)
            if victim is not None:
                self.telemetry.job_event(node.key, "steal",
                                         request_id=victim, thief=rid)

    # -- executor event handling ------------------------------------------

    def _handle_event(self, event: JobEvent) -> None:
        key = event.job.key
        owner = self._running_owner.get(key, "")
        if event.kind == "started":
            self.telemetry.job_event(key, "started", owner,
                                     attempt=event.attempts)
            self.tracer.job_started(key, started_at=event.started_at)
            return
        if event.kind == "retry":
            self.telemetry.job_event(key, "retry", owner,
                                     attempt=event.attempts,
                                     error=_last_line(event.error))
            return

        # terminal outcomes release the dispatcher's slot accounting
        self._running_owner.pop(key, None)
        if owner in self._in_use:
            self._in_use[owner] = max(0, self._in_use[owner] - 1)

        if event.kind == "ok":
            commit_started = time.monotonic()
            try:
                waiters = self.store.complete(key, event.payload,
                                              leaf=True)
            except Exception as exc:
                # the commit raised between claim() and complete():
                # release the claim and fail the claimants rather than
                # leaking the in-flight entry and parking them forever
                error = f"result commit failed: {exc}"
                self._journal_safe("job_failed", key, error)
                self.manifest.record_job(event.job, "failed",
                                         wall_time=event.wall_time,
                                         attempts=event.attempts,
                                         error=error)
                self.telemetry.job_event(key, "failed", owner,
                                         attempts=event.attempts,
                                         error=error)
                self.tracer.job_finished(key, ok=False, error=error)
                self._fail_waiters(self.store.release(key), error)
                return
            self._journal_safe("job_completed", key)
            self.manifest.record_job(event.job, "ok",
                                     wall_time=event.wall_time,
                                     attempts=event.attempts,
                                     result_payload=event.payload)
            self.telemetry.job_event(
                key, "ok", owner, attempts=event.attempts,
                duration_s=round(event.wall_time, 4))
            self.tracer.job_finished(
                key, ok=True,
                commit_s=time.monotonic() - commit_started)
            for request_id, node_key in waiters:
                state = self._requests.get(request_id)
                if state is None:
                    continue
                node = state.graph.nodes.get(node_key)
                if node is not None and not node.terminal:
                    node.state = "done"
                self._advance(state)
        else:                                   # "failed" | "timeout"
            waiters = self.store.fail(key)
            self._journal_safe("job_failed", key, _last_line(event.error))
            self.manifest.record_job(event.job, event.kind,
                                     wall_time=event.wall_time,
                                     attempts=event.attempts,
                                     error=event.error)
            self.telemetry.job_event(key, event.kind, owner,
                                     attempts=event.attempts,
                                     error=_last_line(event.error))
            self.tracer.job_finished(key, ok=False,
                                     error=_last_line(event.error))
            self._fail_waiters(waiters, _last_line(event.error))

    def _fail_waiters(self, waiters: Iterable[Tuple[str, str]],
                      error: str) -> None:
        """Mark every claimant's node failed, poison its dependents,
        and settle the affected requests."""
        for request_id, node_key in waiters:
            state = self._requests.get(request_id)
            if state is None:
                continue
            node = state.graph.nodes.get(node_key)
            if node is not None and not node.terminal:
                node.state = "failed"
                node.error = error
            self._poison_from(state, node_key)
            self._advance(state)

    def _poison_from(self, state: _RequestState, key: str) -> None:
        for node in state.graph.poison(key):
            self.telemetry.job_event(node.key, "poisoned",
                                     state.request_id)

    def _advance(self, state: _RequestState) -> None:
        """Evaluate newly ready synthesis nodes and settle the request."""
        graph = state.graph
        progressed = True
        while progressed:
            progressed = False
            for node in graph.ready_syntheses():
                progressed = True
                synth_us = self.tracer.now_us()
                payload = self.store.get(node.key)
                if payload is None:
                    try:
                        payload = evaluate_synthesis(node, graph,
                                                     self.store.get)
                    except Exception as exc:
                        node.state = "failed"
                        node.error = str(exc)
                        self.telemetry.job_event(node.key, "failed",
                                                 state.request_id,
                                                 error=str(exc))
                        self.tracer.synthesized(state.request_id,
                                                node.key, node.label,
                                                synth_us, error=str(exc))
                        self._poison_from(state, node.key)
                        continue
                    self.store.put_synthesis(node.key, payload)
                node.state = "done"
                self.telemetry.job_event(node.key, "synthesized",
                                         state.request_id)
                self.tracer.synthesized(state.request_id, node.key,
                                        node.label, synth_us)
        if state.status == "running" and graph.terminal:
            state.status = "failed" if graph.failed else "done"
            self._journal_safe("request_finished", state.request_id,
                               state.status)
            self.telemetry.request_event(state.request_id,
                                         state.request.kind, state.status,
                                         jobs=len(graph.leaves()))
            self.tracer.request_finished(state.request_id, state.status)

    def _journal_safe(self, method: str, *args) -> None:
        """Journal a mid-flight transition; on an I/O failure, disable
        journaling (degraded but live) instead of killing the scheduler
        thread. Admission writes, by contrast, propagate: a request that
        cannot be made durable is rejected whole at submit time."""
        if self.journal is None:
            return
        try:
            getattr(self.journal, method)(*args)
        except OSError as exc:
            self.journal = None
            print(f"warning: service journal disabled "
                  f"({method} failed: {exc}); restart recovery will not "
                  f"cover requests from this point on", file=sys.stderr)

    # -- scheduling passes ------------------------------------------------

    def _pass(self, wait: float = 0.05) -> bool:
        """One scheduling pass; returns True when anything happened."""
        with self._lock:
            self._dispatch()
        events = self.executor.step(wait)
        if events:
            with self._lock:
                for event in events:
                    self._handle_event(event)
                self._dispatch()
        return bool(events)

    def drain(self, timeout: float = 300.0) -> None:
        """Run scheduling passes inline until every request is terminal.

        Only valid when no scheduling thread is running (tests,
        one-shot embeddings).
        """
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if all(st.status != "running"
                       for st in self._requests.values()):
                    return
            self._pass(0.02)
            if time.monotonic() > deadline:
                raise SchedulerError(
                    f"drain did not converge within {timeout:g}s")

    def _thread_main(self) -> None:
        while not self._stopping.is_set():
            busy = self._pass(0.05)
            if busy:
                continue
            with self._lock:
                idle = self.executor.idle and not any(
                    self._queues.values())
            if idle:
                # nothing running and nothing queued: sleep until a
                # submission (or stop) wakes us — no busy-polling
                self._wake.wait(0.5)
                self._wake.clear()

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stopping.clear()
        self._thread = threading.Thread(target=self._thread_main,
                                        name="repro-scheduler",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the scheduling thread, if one runs, then release the
        executor's workers and the journal (after :meth:`drain` too)."""
        if self._thread is not None:
            self._stopping.set()
            self._wake.set()
            self._thread.join()
            self._thread = None
        self.executor.shutdown()
        if self.journal is not None:
            self.journal.close()

    # -- snapshots (any thread) -------------------------------------------

    def request_status(self, request_id: str) -> Optional[dict]:
        """Full request detail, or ``None`` for an unknown id."""
        with self._lock:
            state = self._requests.get(request_id)
            if state is None:
                return None
            graph = state.graph
            out = state.summary()
            out["nodes_detail"] = [node.snapshot()
                                   for node in graph.nodes.values()]
            results = {}
            for root in graph.roots():
                if root.state == "done":
                    payload = self.store.get(root.key)
                    if payload is not None:
                        results[root.label] = {"key": root.key,
                                               "payload": payload}
            out["results"] = results
            return out

    def snapshot_jobs(self) -> dict:
        """Every node of every request, plus executor/store counters."""
        with self._lock:
            jobs: List[dict] = []
            for state in self._requests.values():
                for node in state.graph.nodes.values():
                    snap = node.snapshot()
                    snap["request_id"] = state.request_id
                    jobs.append(snap)
            return {
                "jobs": jobs,
                "executor": {"slots": self.executor.slots,
                             "pending": self.executor.pending_count,
                             "active": self.executor.active_count},
                "store": self.store.stats(),
            }

    def gauges(self) -> dict:
        """Live scheduler gauges for the ``/metrics/prom`` exposition:
        per-running-request ready-deque depth, busy workers, executor
        pending/slots, in-flight single-flight claims, telemetry-ring
        occupancy/capacity, and request counts by status."""
        with self._lock:
            ready = {rid: len(queue)
                     for rid, queue in self._queues.items()
                     if self._requests[rid].status == "running"}
            requests: Dict[str, int] = {}
            for state in self._requests.values():
                requests[state.status] = requests.get(state.status, 0) + 1
            return {
                "ready_depth": ready,
                "busy_workers": self.executor.active_count,
                "executor_pending": self.executor.pending_count,
                "executor_slots": self.executor.slots,
                "inflight_claims": self.store.stats()["inflight"],
                "ring_occupancy": self.telemetry.occupancy(),
                "ring_capacity": self.telemetry.capacity,
                "requests": requests,
            }

    def overview(self) -> dict:
        with self._lock:
            return {
                "requests": [state.summary()
                             for state in self._requests.values()],
                "executor": {"slots": self.executor.slots,
                             "pending": self.executor.pending_count,
                             "active": self.executor.active_count},
                "store": self.store.stats(),
                "telemetry": self.telemetry.counts(),
            }


def _last_line(text: Optional[str]) -> str:
    if not text or not text.strip():
        return ""
    return text.strip().splitlines()[-1]
