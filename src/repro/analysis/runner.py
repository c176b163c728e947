"""Process-parallel experiment runner with a crash-safe result store.

Every paper experiment sweeps the same 16 workloads over many
``CoreConfig``s. This module fans (workload, config, windows, seed) jobs
across a pool of worker processes — ChampSim/Scarab-style campaign
running — while the parent process owns the on-disk cache: it probes for
hits before scheduling, treats corrupt entries as misses (recording the
recovery in the run manifest), and commits results atomically via
``tmp + os.replace`` so an interrupted run can never poison the cache.

Guarantees:

* **Determinism** — a simulation is a pure function of its job tuple, and
  every result (fresh or cached) is round-tripped through the same
  canonical JSON payload, so parallel runs produce results identical to
  serial runs and byte-identical cache files.
* **Per-job timeout** — each job runs in a worker process; a job that
  exceeds ``timeout`` seconds has its worker terminated and is retried
  on a new one.
* **Bounded retry** — crashed / timed-out / raising jobs are retried up
  to ``retries`` extra times before being reported as failures.
* **Structured manifest** — a :class:`RunManifest` records per-job
  status, wall time, cache hit/miss, attempts, and run-level events
  (corrupt-entry recoveries, retries), and serialises to JSON.

The module-level "active runner" lets high-level entry points (the
``repro bench`` CLI) install one configured :class:`Runner` that all
:func:`repro.analysis.harness.sweep` calls underneath share — benches
need no code changes to run in parallel.

Execution is factored into an incremental :class:`JobExecutor` —
submit/step semantics over one long-lived worker process per slot,
blocking in ``multiprocessing.connection.wait`` on all busy pipes
instead of busy-polling — so long-lived callers (the ``repro serve``
daemon's DAG scheduler) can feed jobs one at a time and interleave their
own work, while :meth:`Runner.run` stays the batch front door.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import time
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from multiprocessing import connection as _mp_connection
from pathlib import Path
from typing import (Deque, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.common.config import CoreConfig
from repro.core.simulator import SimResult, Simulator
from repro.obs.metrics import current_metric_stream
from repro.sampling import SamplingPlan, SamplingSimulator
from repro.workloads.profiles import clear_trace_cache

__all__ = [
    "Job", "JobEvent", "JobExecutor", "JobFailure", "RunManifest",
    "Runner", "RunnerError", "current_runner", "make_job", "resolve_jobs",
    "using_runner",
]

_JOBS_ENV = "REPRO_BENCH_JOBS"

#: default seconds one executor step blocks waiting for worker pipes
_POLL_INTERVAL = 0.02

#: seconds shutdown() waits for an idle worker to exit before killing it
_STOP_GRACE = 5.0


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-count default: explicit value, else $REPRO_BENCH_JOBS, else 1.

    Raises ``ValueError`` naming the variable when $REPRO_BENCH_JOBS is
    not a positive integer.
    """
    if jobs is None:
        text = os.environ.get(_JOBS_ENV, "") or "1"
        try:
            jobs = int(text)
        except ValueError:
            jobs = 0
        if jobs < 1:
            raise ValueError(f"{_JOBS_ENV} must be a positive integer, "
                             f"got {text!r}")
    return max(1, jobs)


# --------------------------------------------------------------------------
# Jobs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One simulation: a (workload, config, windows, seed) tuple, plus an
    optional sampling plan (which supersedes the dense windows)."""

    workload: str
    config: CoreConfig
    warmup: int
    measure: int
    seed: int = 1234
    sampling: Optional[SamplingPlan] = None

    @cached_property
    def key(self) -> str:
        """The job's result key, computed once per instance: a campaign
        or a service request reads it many times. The cache is the
        instance, never the config's value, because configs that compare
        equal (``tage_banks=True`` and ``1``) can sign differently."""
        from repro.analysis import harness
        return harness.result_key(self.workload, self.config,
                                  self.warmup, self.measure, self.seed,
                                  self.sampling)


def make_job(workload: str, config: CoreConfig,
             warmup: Optional[int] = None, measure: Optional[int] = None,
             seed: int = 1234,
             sampling: Optional[SamplingPlan] = None) -> Job:
    """Build a :class:`Job`, defaulting windows to :func:`bench_windows`."""
    from repro.analysis import harness
    default_warmup, default_measure = harness.bench_windows()
    return Job(workload, config,
               default_warmup if warmup is None else warmup,
               default_measure if measure is None else measure,
               seed, sampling)


# --------------------------------------------------------------------------
# Manifest
# --------------------------------------------------------------------------

@dataclass
class JobFailure:
    key: str
    workload: str
    status: str         # "failed" | "timeout"
    error: str


@dataclass
class RunManifest:
    """Structured record of one campaign: job outcomes plus run events."""

    meta: dict = field(default_factory=dict)
    jobs: List[dict] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    _started: float = field(default_factory=time.monotonic, repr=False)

    def record_job(self, job: Job, status: str, *, wall_time: float = 0.0,
                   cache_hit: bool = False, attempts: int = 0,
                   error: Optional[str] = None,
                   result_payload: Optional[dict] = None) -> None:
        entry = {
            "key": job.key,
            "workload": job.workload,
            "warmup": job.warmup,
            "measure": job.measure,
            "seed": job.seed,
            "status": status,
            "wall_time_s": round(wall_time, 4),
            "cache_hit": cache_hit,
            "attempts": attempts,
        }
        if result_payload is not None \
                and result_payload.get("counters", {}).get("cycle_cap_hit"):
            # the core burned its max_cycles budget before retiring the
            # target: the result is truncated, not a converged measurement
            entry["cycle_cap_hit"] = True
            self.record_event(
                "cycle_cap_hit", key=job.key, workload=job.workload,
                detail="max_cycles reached before the instruction target; "
                       "metrics cover a truncated window")
        if job.sampling is not None:
            entry["sampling"] = job.sampling.cache_tag()
            if result_payload is not None:
                # per-interval stats so a campaign's statistical quality
                # is auditable from the manifest alone
                entry["interval_ipcs"] = list(
                    result_payload.get("interval_ipcs", []))
                if "ipc_ci" in result_payload:
                    entry["ipc_ci"] = dict(result_payload["ipc_ci"])
        if error:
            entry["error"] = error
        stack = None
        if result_payload is not None and any(
                key.startswith("cpi_")
                for key in result_payload.get("counters", ())):
            # per-workload CPI stack in the manifest: the campaign's
            # where-did-the-cycles-go answer travels with its results
            from repro.analysis.harness import config_signature
            from repro.obs.accounting import stack_from_counters
            stack = stack_from_counters(
                result_payload["counters"],
                width=job.config.backend.allocate_width,
                cycles=result_payload.get("cycles", 0),
                workload=job.workload,
                config=config_signature(job.config),
                instructions=result_payload.get("instructions", 0))
            entry["cpi_stack"] = stack.to_record()
        self.jobs.append(entry)
        stream = current_metric_stream()
        if stream is not None:
            # emitted parent-side as results arrive: worker processes do
            # not inherit the ambient stream (see repro.obs.metrics)
            from repro.analysis.harness import config_signature
            stream.emit("job", workload=job.workload,
                        config=config_signature(job.config),
                        status=status, attempts=attempts,
                        duration_s=entry["wall_time_s"],
                        cache_hit=cache_hit, key=job.key,
                        cycle_cap_hit=bool(entry.get("cycle_cap_hit")))
            if stack is not None:
                stream.emit("cpi_stack", **stack.to_record())

    def record_event(self, kind: str, **detail) -> None:
        self.events.append({"kind": kind, **detail})

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.jobs:
            out[entry["status"]] = out.get(entry["status"], 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "meta": dict(self.meta),
            "elapsed_s": round(time.monotonic() - self._started, 3),
            "counts": self.counts(),
            "jobs": list(self.jobs),
            "events": list(self.events),
        }

    def save(self, path) -> Path:
        """Atomically write the manifest JSON to ``path``.

        The temp file is unlinked even when serialisation raises
        (e.g. unserialisable ``meta``), mirroring the cache writer in
        :func:`repro.analysis.harness.store_cache_payload`.
        """
        import json
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            with tmp.open("w") as handle:
                json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
        return path


class RunnerError(RuntimeError):
    """Raised (in strict mode) when jobs remain failed after retries."""

    def __init__(self, failures: Sequence[JobFailure]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} job(s) failed:"]
        for failure in self.failures[:8]:
            first = failure.error.strip().splitlines()
            lines.append(f"  [{failure.status}] {failure.key}: "
                         f"{first[-1] if first else '?'}")
        if len(self.failures) > 8:
            lines.append(f"  ... and {len(self.failures) - 8} more")
        super().__init__("\n".join(lines))


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------

def _worker_main(conn, workload: str, config: CoreConfig,
                 warmup: int, measure: int, seed: int,
                 sampling: Optional[SamplingPlan] = None) -> None:
    """Run one simulation and ship the serialised payload back."""
    try:
        from repro.analysis import harness
        if sampling is not None:
            result = SamplingSimulator(config, seed=seed).run(workload,
                                                              sampling)
        else:
            result = Simulator(config, seed=seed).run(workload, warmup,
                                                      measure)
        conn.send(("ok", harness.serialize_result(result)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass


def _worker_loop(conn, parent_end) -> None:
    """Body of a worker process: run the jobs that arrive on ``conn``
    until a ``None`` stop message or the parent's death (EOF).

    Each job goes through the module global :func:`_worker_main`, so a
    wrapper installed before the fork sees every job. Between jobs the
    worker drops its in-process workload caches: it holds at most one
    job's workload, and the next job loads its own from the workload
    store.
    """
    # our copy of the parent's end would keep the pipe open after the
    # parent dies, and an orphan would then wait in recv() forever
    parent_end.close()
    # Ctrl-C reaches the whole process group; the parent decides whether
    # a worker is stopped or terminated (JobExecutor.shutdown)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job is None:
            return
        _worker_main(conn, *job)
        clear_trace_cache()


def _mp_context():
    """The ``fork`` context where the platform has it.

    Forking, not spawning, is deliberate. A spawned worker pays for a
    fresh interpreter plus the import of this module (about half a
    CPU-second on a 2-vCPU VM), which a short campaign would pay once
    per slot. Workers also inherit what the parent installed before the
    fork, such as the benchmark's span wrappers around
    :func:`_worker_main`. And each slot forks once, not once per job,
    so a threaded parent (the ``repro serve`` daemon) forks rarely.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


@dataclass
class _Worker:
    """One long-lived worker process and the parent's end of its pipe."""

    proc: multiprocessing.process.BaseProcess
    conn: _mp_connection.Connection

    def kill(self) -> None:
        """Terminate the process (harmless once it has exited), reap
        it, and close our end of its pipe."""
        self.proc.terminate()
        self.proc.join()
        self.conn.close()


@dataclass
class _Task:
    job: Job
    attempts: int = 0
    started: float = 0.0
    first_started: float = 0.0


# --------------------------------------------------------------------------
# Incremental executor
# --------------------------------------------------------------------------

@dataclass
class JobEvent:
    """One executor transition, returned by :meth:`JobExecutor.step`.

    ``kind`` is one of:

    * ``"started"`` — the job was handed to a worker process
      (``attempts`` counts this launch; ``started_at`` is the
      ``time.monotonic()`` of the launch, since a job that ends within
      one :meth:`JobExecutor.step` arrives in the same batch as its
      ``"ok"``).
    * ``"retry"`` — the attempt crashed / timed out / raised and the job
      was re-enqueued; ``error`` holds the failure text.
    * ``"ok"`` — terminal success; ``payload`` is the serialised result.
    * ``"failed"`` / ``"timeout"`` — terminal failure after all retries;
      ``error`` holds the last failure text.

    ``wall_time`` on terminal events spans from the job's *first* launch.
    """

    kind: str
    job: Job
    attempts: int
    payload: Optional[dict] = None
    error: Optional[str] = None
    wall_time: float = 0.0
    started_at: float = 0.0


class JobExecutor:
    """Incremental worker-pool executor: submit jobs, step for events.

    The executor owns the worker processes, per-job timeout enforcement,
    and bounded retry; callers own everything else (cache probes, result
    handling, manifests beyond retry events). :class:`Runner` drives it
    to completion in one loop; the ``repro serve`` scheduler feeds it one
    DAG-ready job at a time and interleaves its own bookkeeping between
    :meth:`step` calls.

    Workers:

    * Each slot is one long-lived worker process that runs job after
      job. A launch takes an idle worker, or forks one when none is
      idle, so an executor that never misses forks nothing and never
      runs more than ``slots`` workers.
    * Only a worker whose last job succeeded takes another job. A job
      that raised, crashed, or timed out costs its worker: it is
      terminated and joined, and the retry runs on a new one.
    * The workers live and die with the executor: :meth:`shutdown`
      stops idle workers with a message and terminates busy ones. A
      worker whose parent dies exits at its next read (see
      :func:`_worker_loop`).

    Scheduling structure:

    * ``pending`` is a :class:`collections.deque`; fresh submissions and
      retries both join at the **tail** (documented behaviour: a retried
      job waits behind everything already queued, so one flaky job cannot
      starve the rest of a campaign), and launches pop from the head.
    * :meth:`step` blocks in ``multiprocessing.connection.wait`` on all
      busy worker pipes (bounded by the nearest timeout deadline) instead
      of busy-polling each pipe — an idle pool costs no CPU, which is
      what lets a long-lived daemon host sleep between jobs.
    """

    def __init__(self, slots: Optional[int] = None,
                 timeout: Optional[float] = None, retries: int = 1,
                 manifest: Optional[RunManifest] = None) -> None:
        self.slots = resolve_jobs(slots)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.manifest = manifest
        self._ctx = _mp_context()
        self._pending: Deque[_Task] = deque()
        self._running: List[Tuple[_Task, _Worker]] = []
        self._idle: List[_Worker] = []

    # -- introspection ----------------------------------------------------

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def active_count(self) -> int:
        return len(self._running)

    @property
    def free_slots(self) -> int:
        """Slots not already claimed by running or queued work."""
        return max(0, self.slots - len(self._running) - len(self._pending))

    @property
    def idle(self) -> bool:
        return not self._pending and not self._running

    # -- submission -------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Enqueue ``job`` at the tail of the pending deque."""
        self._pending.append(_Task(job))

    # -- stepping ---------------------------------------------------------

    def step(self, wait: float = _POLL_INTERVAL) -> List[JobEvent]:
        """Launch queued work, wait up to ``wait`` seconds for worker
        activity, and return the resulting :class:`JobEvent` list.

        Returns immediately (empty list) when the executor is idle.
        """
        events: List[JobEvent] = []
        while self._pending and len(self._running) < self.slots:
            task = self._pending.popleft()
            self._launch(task)
            events.append(JobEvent("started", task.job, task.attempts,
                                   started_at=task.started))
        if not self._running:
            return events

        timeout = wait
        if self.timeout is not None:
            nearest = min(task.started + self.timeout
                          for task, _worker in self._running)
            timeout = max(0.0, min(wait, nearest - time.monotonic()))
        ready = set(_mp_connection.wait(
            [worker.conn for _task, worker in self._running], timeout))

        now = time.monotonic()
        for entry in list(self._running):
            task, worker = entry
            if worker.conn in ready:
                try:
                    kind, payload = worker.conn.recv()
                except (EOFError, OSError):
                    # pipe closed without a payload: the worker died
                    # before (or while) sending
                    kind, payload = "crashed", None
            elif (self.timeout is not None
                  and now - task.started > self.timeout):
                kind, payload = "timeout", \
                    f"timed out after {self.timeout:g}s"
            elif not worker.proc.is_alive():
                # belt and braces: a dead worker's pipe should have been
                # reported ready (EOF), but never wedge on one that isn't
                kind, payload = "crashed", None
            else:
                continue
            self._running.remove(entry)
            if kind == "ok":
                self._idle.append(worker)
                events.append(JobEvent(
                    "ok", task.job, task.attempts, payload=payload,
                    wall_time=now - task.first_started))
                continue
            worker.kill()
            if kind == "crashed":
                payload = f"worker crashed (exitcode {worker.proc.exitcode})"
            self._fail_or_retry(task,
                                "timeout" if kind == "timeout" else "failed",
                                payload, events)
        return events

    def _launch(self, task: _Task) -> None:
        worker = self._idle.pop() if self._idle else self._fork()
        job = task.job
        try:
            worker.conn.send((job.workload, job.config, job.warmup,
                              job.measure, job.seed, job.sampling))
        except OSError:
            pass    # the worker died while idle: step() sees its EOF
        task.started = time.monotonic()
        if not task.first_started:
            task.first_started = task.started
        task.attempts += 1
        self._running.append((task, worker))

    def _fork(self) -> _Worker:
        parent_end, child_end = self._ctx.Pipe()
        proc = self._ctx.Process(target=_worker_loop,
                                 args=(child_end, parent_end), daemon=True)
        proc.start()
        child_end.close()
        return _Worker(proc, parent_end)

    def _fail_or_retry(self, task: _Task, status: str, error: str,
                       events: List[JobEvent]) -> None:
        if task.attempts <= self.retries:
            if self.manifest is not None:
                self.manifest.record_event(
                    "retry", key=task.job.key, attempt=task.attempts,
                    status=status, error=error.strip().splitlines()[-1]
                    if error.strip() else status)
            # re-enqueue at the tail: the retry waits behind every job
            # already queued (see the class docstring)
            self._pending.append(task)
            events.append(JobEvent("retry", task.job, task.attempts,
                                   error=error))
            return
        events.append(JobEvent(
            status, task.job, task.attempts, error=error,
            wall_time=time.monotonic() - task.first_started))

    # -- teardown ---------------------------------------------------------

    def shutdown(self) -> None:
        """Stop idle workers, terminate busy ones, and drop queued work.

        An idle worker is told to stop rather than left to see EOF: a
        worker forked later holds a copy of an earlier worker's pipe
        end, so closing ours alone does not reach it.
        """
        for worker in self._idle:
            try:
                worker.conn.send(None)
            except OSError:
                pass    # already dead; kill() below reaps it
        for worker in self._idle:
            worker.proc.join(_STOP_GRACE)
            worker.kill()
        for _task, worker in self._running:
            worker.kill()
        self._idle.clear()
        self._running.clear()
        self._pending.clear()

    def __enter__(self) -> "JobExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# --------------------------------------------------------------------------
# Runner
# --------------------------------------------------------------------------

class Runner:
    """Fan jobs across worker processes with caching, timeout, and retry.

    Parameters
    ----------
    jobs:
        Worker-process count (``None`` → ``$REPRO_BENCH_JOBS`` or 1).
    timeout:
        Per-job wall-clock limit in seconds (``None`` → unlimited).
    retries:
        Extra attempts after a crash/timeout/exception before a job is
        declared failed.
    use_cache:
        Consult and populate the on-disk result cache.
    progress:
        Emit a live ``[done/total]`` line on stderr (``None`` → only when
        stderr is a tty).
    manifest:
        A shared :class:`RunManifest`; one is created if not given.
    """

    def __init__(self, jobs: Optional[int] = None,
                 timeout: Optional[float] = None, retries: int = 1,
                 use_cache: bool = True,
                 progress: Optional[bool] = None,
                 manifest: Optional[RunManifest] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.use_cache = use_cache
        self.manifest = manifest if manifest is not None else RunManifest()
        self.progress = (sys.stderr.isatty() if progress is None
                         else progress)

    # -- high-level entry points ------------------------------------------

    def run_sweep(self, workloads: Iterable[str], config: CoreConfig,
                  warmup: Optional[int] = None,
                  measure: Optional[int] = None,
                  seed: int = 1234,
                  sampling: Optional[SamplingPlan] = None
                  ) -> Dict[str, SimResult]:
        """Parallel equivalent of the harness' serial ``sweep``."""
        names = list(workloads)
        jobs = [make_job(name, config, warmup, measure, seed, sampling)
                for name in names]
        results = self.run(jobs)
        return {name: results[job] for name, job in zip(names, jobs)}

    def run_sweep_configs(self, workloads: Iterable[str],
                          configs: Dict[str, CoreConfig],
                          warmup: Optional[int] = None,
                          measure: Optional[int] = None,
                          seed: int = 1234,
                          sampling: Optional[SamplingPlan] = None
                          ) -> Dict[str, Dict[str, SimResult]]:
        """Run {config_name: config} x workloads as one flat campaign."""
        names = list(workloads)
        jobs = {cfg_name: [make_job(n, cfg, warmup, measure, seed, sampling)
                           for n in names]
                for cfg_name, cfg in configs.items()}
        flat = [job for job_list in jobs.values() for job in job_list]
        results = self.run(flat)
        return {cfg_name: {name: results[job]
                           for name, job in zip(names, job_list)}
                for cfg_name, job_list in jobs.items()}

    # -- core scheduler ---------------------------------------------------

    def run(self, jobs: Sequence[Job],
            strict: bool = True) -> Dict[Job, SimResult]:
        """Execute ``jobs``; return ``{job: result}`` for completed jobs.

        Identical jobs are executed once. In strict mode (the default) a
        :class:`RunnerError` is raised after the whole campaign finishes
        if any job still failed after its retries; with ``strict=False``
        failed jobs are simply absent from the returned mapping (their
        outcome lives in the manifest).
        """
        from repro.analysis import harness

        unique: List[Job] = []
        seen = set()
        for job in jobs:
            if job not in seen:
                seen.add(job)
                unique.append(job)

        results: Dict[Job, SimResult] = {}
        total = len(unique)
        done = hits = ran = 0
        executor = JobExecutor(self.jobs, self.timeout, self.retries,
                               manifest=self.manifest)

        for job in unique:
            payload = None
            if self.use_cache:
                path = harness.entry_path(job.key)
                payload, corrupt = harness.load_cache_payload(path)
                if corrupt:
                    self.manifest.record_event(
                        "corrupt_cache_entry", key=job.key, path=str(path),
                        action="treated as miss; re-running")
            if payload is not None:
                results[job] = harness.deserialize_result(payload)
                self.manifest.record_job(job, "ok", cache_hit=True,
                                         result_payload=payload)
                done += 1
                hits += 1
            else:
                executor.submit(job)
        self._progress(done, total, hits, ran, executor.pending_count, 0)

        failures: List[JobFailure] = []
        try:
            while not executor.idle:
                progressed = False
                for event in executor.step():
                    if event.kind == "ok":
                        job = event.job
                        results[job] = harness.deserialize_result(
                            event.payload)
                        if self.use_cache:
                            harness.store_cache_payload(
                                harness.entry_path(job.key), event.payload)
                        done += 1
                        ran += 1
                        self.manifest.record_job(
                            job, "ok", wall_time=event.wall_time,
                            attempts=event.attempts,
                            result_payload=event.payload)
                        progressed = True
                    elif event.kind in ("failed", "timeout"):
                        done += 1
                        self.manifest.record_job(
                            event.job, event.kind,
                            wall_time=event.wall_time,
                            attempts=event.attempts, error=event.error)
                        failures.append(JobFailure(
                            event.job.key, event.job.workload,
                            event.kind, event.error))
                        progressed = True
                if progressed:
                    self._progress(done, total, hits, ran,
                                   executor.pending_count,
                                   executor.active_count)
        finally:
            executor.shutdown()
            self._progress_end()

        if failures and strict:
            raise RunnerError(failures)
        return results

    # -- progress line ----------------------------------------------------

    def _progress(self, done: int, total: int, hits: int, ran: int,
                  queued: int, active: int) -> None:
        if not self.progress:
            return
        sys.stderr.write(
            f"\r[{done}/{total}] cache-hits={hits} ran={ran} "
            f"queued={queued} active={active}   ")
        sys.stderr.flush()

    def _progress_end(self) -> None:
        if self.progress:
            sys.stderr.write("\n")
            sys.stderr.flush()


# --------------------------------------------------------------------------
# Active-runner context
# --------------------------------------------------------------------------

_ACTIVE_RUNNER: Optional[Runner] = None


@contextmanager
def using_runner(runner: Runner) -> Iterator[Runner]:
    """Install ``runner`` as the one every harness sweep call routes to."""
    global _ACTIVE_RUNNER
    previous = _ACTIVE_RUNNER
    _ACTIVE_RUNNER = runner
    try:
        yield runner
    finally:
        _ACTIVE_RUNNER = previous


def current_runner() -> Runner:
    """The installed runner, or a fresh env-configured default."""
    if _ACTIVE_RUNNER is not None:
        return _ACTIVE_RUNNER
    return Runner()
