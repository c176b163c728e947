"""Spans around each layer's public functions, recorded from outside.

:func:`install` replaces the public functions of every layer with
wrappers that record one span per call: name, start, end, parent span,
pid, and the job key or request id in scope. Spans stay in memory and
are written to ``spans-<pid>-<n>.jsonl`` files by :meth:`Recorder.flush`.
Runner workers are forked children that exit without running atexit
hooks, so the worker wrapper flushes after every job. Install before
any worker forks: workers inherit the wrapped functions.

:func:`layer_metrics` folds the spans of one traced pass into the
per-layer metrics. A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from perfbench.env import print_table

__all__ = ["PER_LAYER", "Recorder", "install", "layer_metrics",
           "load_spans", "report", "self_times"]


class Recorder:
    """Per-process span buffer with one open-span stack per thread."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self.context: Dict[str, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._count = 0
        self._flushes = 0

    def _stack(self) -> list:
        if os.getpid() != self.pid:
            # a forked worker: drop the parent's spans and open stack
            self._reset()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, **attrs) -> dict:
        stack = self._stack()
        with self._lock:
            self._count += 1
            span_id = f"{self.pid}.{self._count}"
        span = {"name": name, "id": span_id,
                "parent": stack[-1]["id"] if stack else None,
                "pid": self.pid, "start": time.perf_counter(),
                "end": None, **self.context, **attrs}
        stack.append(span)
        return span

    def finish(self, span: dict, **attrs) -> None:
        span["end"] = time.perf_counter()
        span.update(attrs)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def flush(self) -> None:
        """Append the buffered spans to this process's next span file."""
        with self._lock:
            spans, self.spans = self.spans, []
            self._flushes += 1
            path = self.out_dir / f"spans-{self.pid}-{self._flushes}.jsonl"
        if spans:
            with path.open("w") as handle:
                for span in spans:
                    handle.write(json.dumps(span) + "\n")


def _wrap(owner, attr: str, name: str, recorder: Recorder,
          enter: Optional[Callable] = None,
          exit_: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``enter(span, args, kwargs)`` and ``exit_(span, result, args,
    kwargs)`` may add attributes to the span.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = recorder.start(name)
        if enter is not None:
            enter(span, args, kwargs)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            recorder.finish(span, error=True)
            raise
        if exit_ is not None:
            exit_(span, result, args, kwargs)
        recorder.finish(span)
        return result

    setattr(owner, attr, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap the public functions of every layer (idempotence is the
    caller's job: install once per process)."""
    from repro.analysis import harness, runner
    from repro.core import simulator as core_simulator
    from repro.core.ooo_core import OoOCore
    from repro.sampling import simulator as sampling_simulator
    from repro.sampling.fastforward import FunctionalWarmer
    from repro.service import scheduler
    from repro.service.client import ServiceClient
    from repro.service.journal import RequestJournal
    from repro.service.store import ResultStore
    from repro.service.telemetry import ServiceTelemetry
    from repro.service.tracing import RequestTracer
    from repro.workloads import profiles
    from repro.workloads.emulator import Emulator

    # -- repro.workloads: one wrapper, bound wherever the name was imported
    _wrap(profiles, "build_workload", "workloads.build", recorder)
    core_simulator.build_workload = profiles.build_workload
    sampling_simulator.build_workload = profiles.build_workload
    _wrap(Emulator, "run", "workloads.emulate", recorder,
          exit_=lambda span, trace, a, k: span.update(
              instructions=len(trace)))

    # -- repro.core
    _wrap(OoOCore, "__init__", "core.construct", recorder)

    def core_enter(span, args, kwargs):
        span["_from"] = (args[0].retired, args[0].now)

    def core_exit(span, result, args, kwargs):
        retired, now = span.pop("_from")
        span.update(instructions=args[0].retired - retired,
                    cycles=args[0].now - now)
    _wrap(OoOCore, "run", "core.run", recorder, core_enter, core_exit)
    _wrap(core_simulator.Simulator, "run", "core.simulate", recorder)

    # -- repro.sampling
    def sampled_exit(span, result, args, kwargs):
        span.update(
            detailed=result.counters["sampling_detailed_instructions"],
            functional=result.counters["sampling_functional_instructions"])
    _wrap(sampling_simulator.SamplingSimulator, "run", "sampling.run",
          recorder, exit_=sampled_exit)
    _wrap(FunctionalWarmer, "advance", "sampling.warm", recorder,
          exit_=lambda span, n, a, k: span.update(instructions=n))

    # -- repro.analysis.harness (callers reach these through the module)
    _wrap(harness, "run_cached", "harness.run_cached", recorder)
    _wrap(harness, "load_cache_payload", "harness.probe", recorder,
          exit_=lambda span, result, a, k: span.update(
              hit=result[0] is not None))
    _wrap(harness, "store_cache_payload", "harness.commit", recorder)
    _wrap(harness, "serialize_result", "harness.serialize", recorder)
    _wrap(harness, "deserialize_result", "harness.deserialize", recorder)

    # -- repro.analysis.runner
    _wrap(runner.Runner, "run", "runner.run", recorder)

    def step_exit(span, events, args, kwargs):
        jobs = [[e.job.key, e.kind, e.wall_time] for e in events
                if e.kind in ("ok", "failed", "timeout")]
        retries = sum(1 for e in events if e.kind == "retry")
        if jobs:
            span["jobs"] = jobs
        if retries:
            span["retries"] = retries
        span["slots"] = args[0].slots
    _wrap(runner.JobExecutor, "step", "runner.step", recorder,
          exit_=step_exit)

    worker_main = runner._worker_main

    def traced_worker_main(conn, workload, config, warmup, measure, seed,
                           sampling=None):
        key = harness.result_key(workload, config, warmup, measure, seed,
                                 sampling)
        recorder._stack()          # reset state inherited from the parent
        recorder.context = {"key": key}
        span = recorder.start("runner.worker")
        try:
            worker_main(conn, workload, config, warmup, measure, seed,
                        sampling)
        finally:
            recorder.finish(span)
            recorder.flush()
    runner._worker_main = traced_worker_main

    # -- repro.service (daemon side)
    _wrap(scheduler.ServiceScheduler, "submit_request", "service.admit",
          recorder, exit_=lambda span, response, a, k: span.update(
              request_id=response["request_id"]))
    _wrap(scheduler, "expand_request", "service.expand", recorder)
    _wrap(ResultStore, "claim", "service.claim", recorder,
          enter=lambda span, args, k: span.update(key=args[1]),
          exit_=lambda span, result, a, k: span.update(status=result[0]))
    _wrap(RequestJournal, "append", "service.journal", recorder,
          enter=lambda span, args, k: span.update(event=args[1]))

    def subject(method):
        # the first argument of these methods is a request id or job key
        def enter(span, args, kwargs):
            span.update(method=method,
                        subject=args[1] if len(args) > 1 else None)
        return enter
    for method in ("request_admitted", "job_cache_hit", "job_queued",
                   "job_dedup", "job_dispatched", "job_started",
                   "job_finished", "job_failed_instant", "synthesized",
                   "request_finished"):
        _wrap(RequestTracer, method, "service.tracer", recorder,
              enter=subject(method))
    for method in ("request_event", "job_event", "recovery_event",
                   "span_event"):
        _wrap(ServiceTelemetry, method, "service.telemetry", recorder,
              enter=subject(method))
    _wrap(scheduler, "evaluate_synthesis", "service.synthesis", recorder)

    # -- repro.service (client side)
    _wrap(ServiceClient, "submit", "service.submit", recorder,
          exit_=lambda span, response, a, k: span.update(
              request_id=response.get("request_id")))
    _wrap(ServiceClient, "status", "service.status", recorder,
          enter=lambda span, args, k: span.update(
              request_id=args[1] if len(args) > 1 else None))


def load_spans(directory: Path) -> List[dict]:
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with path.open() as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def self_times(spans: Iterable[dict]) -> Dict[str, float]:
    """Self time of every span id: duration minus its children's."""
    spans = list(spans)
    child_time: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return {span["id"]: span["end"] - span["start"] - child_time[span["id"]]
            for span in spans}


#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("workloads.build_s", "s", "lower"),
    ("workloads.emulate_s", "s", "lower"),
    ("workloads.emulations", "count", "lower"),
    ("workloads.emulated_kinstr", "kinstr", "lower"),
    ("core.construct_s", "s", "lower"),
    ("core.run_s", "s", "lower"),
    ("core.kips", "kinstr/s", "higher"),
    ("core.sim_kinstr", "kinstr", "lower"),
    ("core.sim_cycles", "count", "lower"),
    ("sampling.run_s", "s", "lower"),
    ("sampling.warm_s", "s", "lower"),
    ("sampling.detailed_kinstr", "kinstr", "lower"),
    ("sampling.functional_kinstr", "kinstr", "lower"),
    ("harness.probe_s", "s", "lower"),
    ("harness.probes", "count", "lower"),
    ("harness.hit_ratio", "ratio", "higher"),
    ("harness.commit_s", "s", "lower"),
    ("harness.serialize_s", "s", "lower"),
    ("harness.deserialize_s", "s", "lower"),
    ("runner.job_wall_s", "s", "lower"),
    ("runner.overhead_s", "s", "lower"),
    ("runner.slot_busy", "ratio", "higher"),
    ("runner.jobs", "count", "lower"),
    ("runner.retries", "count", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.status_s", "s", "lower"),
    ("service.expand_s", "s", "lower"),
    ("service.claim_s", "s", "lower"),
    ("service.journal_s", "s", "lower"),
    ("service.journal_appends", "count", "lower"),
    ("service.tracer_s", "s", "lower"),
    ("service.telemetry_s", "s", "lower"),
    ("service.synthesis_s", "s", "lower"),
    ("service.hit_ratio", "ratio", "higher"),
    ("service.dedups", "count", "higher"),
    ("obs.overhead_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]

#: span name -> per-layer self-time metric it feeds
_SELF_TIME = {
    "workloads.build": "workloads.build_s",
    "workloads.emulate": "workloads.emulate_s",
    "core.construct": "core.construct_s",
    "core.run": "core.run_s",
    "sampling.run": "sampling.run_s",
    "sampling.warm": "sampling.warm_s",
    "harness.probe": "harness.probe_s",
    "harness.commit": "harness.commit_s",
    "harness.serialize": "harness.serialize_s",
    "harness.deserialize": "harness.deserialize_s",
    "service.submit": "service.submit_s",
    "service.status": "service.status_s",
    "service.expand": "service.expand_s",
    "service.claim": "service.claim_s",
    "service.journal": "service.journal_s",
    "service.tracer": "service.tracer_s",
    "service.telemetry": "service.telemetry_s",
    "service.synthesis": "service.synthesis_s",
    "bench.pass": "trace.unattributed_s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[dict], busy_wall: float
                  ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer metric values of one traced run's spans, and the base
    of every ratio. ``busy_wall`` is the wall time the runner's slots
    were available (the cold passes), the base of ``runner.slot_busy``.
    Layers a workload bypasses read 0."""
    own = self_times(spans)
    values: Dict[str, float] = defaultdict(float)
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        metric = _SELF_TIME.get(span["name"])
        if metric is not None:
            values[metric] += own[span["id"]]

    emulations = by_name["workloads.emulate"]
    values["workloads.emulations"] = len(emulations)
    values["workloads.emulated_kinstr"] = sum(
        s["instructions"] for s in emulations) / 1000.0
    runs = by_name["core.run"]
    values["core.sim_kinstr"] = sum(s["instructions"] for s in runs) / 1e3
    values["core.sim_cycles"] = sum(s["cycles"] for s in runs)
    values["core.kips"] = _ratio(values["core.sim_kinstr"],
                                 values["core.run_s"])
    sampled = by_name["sampling.run"]
    values["sampling.detailed_kinstr"] = sum(
        s["detailed"] for s in sampled) / 1000.0
    values["sampling.functional_kinstr"] = sum(
        s["functional"] for s in sampled) / 1000.0

    probes = by_name["harness.probe"]
    hits = sum(1 for s in probes if s["hit"])
    values["harness.probes"] = len(probes)
    values["harness.hit_ratio"] = _ratio(hits, len(probes))

    walls = []
    slots = 0
    for span in by_name["runner.step"]:
        slots = max(slots, span["slots"])
        values["runner.retries"] += span.get("retries", 0)
        walls.extend(wall for _key, _kind, wall in span.get("jobs", ()))
    job_wall = sum(walls)
    # worker-side simulations carry the job key of their worker span
    simulated = sum(s["end"] - s["start"]
                    for name in ("core.simulate", "sampling.run")
                    for s in by_name[name] if "key" in s)
    values["runner.jobs"] = len(walls)
    values["runner.job_wall_s"] = job_wall
    values["runner.overhead_s"] = job_wall - simulated
    values["runner.slot_busy"] = _ratio(job_wall, slots * busy_wall)

    claims = by_name["service.claim"]
    claim_hits = sum(1 for s in claims if s["status"] == "hit")
    values["service.journal_appends"] = len(by_name["service.journal"])
    values["service.hit_ratio"] = _ratio(claim_hits, len(claims))
    values["service.dedups"] = sum(1 for s in claims
                                   if s["status"] == "wait")

    bases = {
        "core.kips": f"{values['core.sim_kinstr']:.1f} kinstr / "
                     f"{values['core.run_s']:.3f} s in core.run",
        "harness.hit_ratio": f"{hits} hits / {len(probes)} probes",
        "runner.slot_busy": f"{job_wall:.3f} s job wall / ({slots} slots "
                            f"x {busy_wall:.3f} s cold-pass wall)",
        "runner.overhead_s": f"{job_wall:.3f} s job wall - "
                             f"{simulated:.3f} s worker simulate",
        "service.hit_ratio": f"{claim_hits} hits / {len(claims)} claims",
    }
    return values, bases


def report(spans: List[dict], values: Dict[str, float],
           bases: Dict[str, str]) -> None:
    """Print self times per span name, the benchmark process's wall-time account of
    every traced pass, and the per-layer metrics with their bases."""
    own = self_times(spans)
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    print_table("spans, all processes", ["span", "calls", "processes",
                                    "total s", "self s"],
           [[name, len(group), len({s["pid"] for s in group}),
             f"{sum(s['end'] - s['start'] for s in group):.4f}",
             f"{sum(own[s['id']] for s in group):.4f}"]
            for name, group in sorted(by_name.items())])

    children: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    for root in by_name["bench.pass"]:
        account: Dict[str, List[float]] = defaultdict(list)
        todo = list(children[root["id"]])
        while todo:
            span = todo.pop()
            account[span["name"]].append(own[span["id"]])
            todo.extend(children[span["id"]])
        rows = [[name, len(t), f"{sum(t):.4f}"]
                for name, t in sorted(account.items())]
        rows.append(["unattributed", "", f"{own[root['id']]:.4f}"])
        attributed = sum(sum(t) for t in account.values())
        rows.append(["sum", "", f"{attributed + own[root['id']]:.4f}"])
        print_table(f"{root['phase']} pass wall {root['end'] - root['start']:.4f}"
               f" s in the benchmark process: self time by span",
               ["span", "calls", "self s"], rows)

    print_table("per-layer metrics", ["metric", "value", "base"],
           [[name, f"{values[name]:.6g} {unit}", bases.get(name, "")]
            for name, unit, _better in PER_LAYER])
