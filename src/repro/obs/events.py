"""Structured pipeline events: sink interface, ring-buffer recorder, replay.

The timing core, the main fetch engine, and the APF engine each carry an
``obs`` slot that is ``None`` by default. When a sink is attached
(:meth:`repro.core.ooo_core.OoOCore.attach_obs`), each pipeline phase
calls exactly one semantic callback at each *state change* — the disabled
path costs one ``is not None`` check per phase. Because both loop drivers
(`_run_reference` and `_run_skipping`) execute the same state changes on
the same cycles (skipped windows are provably no-ops), an attached sink
observes an identical event stream under either driver; this is asserted
by ``tests/test_obs_events.py``.

Sinks are duck-typed — the core never imports this module. Subclass
:class:`ObsSink` for the no-op defaults. :class:`EventRecorder` is the
standard sink: it flattens callbacks into compact tuples in a bounded
ring buffer (oldest events drop first) and samples per-subsystem
occupancy histograms. :func:`replay_timelines` rebuilds per-uop
lifecycles from the tuples, and every view in
:mod:`repro.obs.exporters` (Chrome trace, O3PipeView, text timeline)
renders from those.

Event tuples all start ``(kind, cycle, ...)``:

====================  =====================================================
kind                  payload after ``cycle``
====================  =====================================================
EV_FETCH_BUNDLE       ``first_seq, n_uops, ftq_len`` (after append)
EV_FETCH              ``seq, pc, op, flags`` (one per uop; also emitted,
                      with ``F_RESTORED`` set, for each APF-restored uop)
EV_ALLOC              ``seq, done_cycle, rob_len, sched_len`` (after insert)
EV_RESOLVE            ``seq, mispredict`` (every branch resolution)
EV_RETIRE             ``seq``
EV_SQUASH             ``after_seq`` (every live uop with seq > after_seq
                      is squashed this cycle)
EV_RESTORE            ``branch_seq, n_uops`` (followed by that many
                      EV_FETCH tuples for the restored uops)
EV_APF_JOB_START      ``branch_seq, branch_pc``
EV_APF_JOB_COMPLETE   ``branch_seq, n_uops, terminated, dead``
EV_APF_BUFFER_FILL    ``occupancy`` (buffers occupied after the fill)
EV_ICACHE_STALL       ``extra`` (stall cycles beyond the hit latency)
EV_BTB_MISFETCH       ``pc``
====================  =====================================================

``flags`` is a bitmask of ``F_WRONG_PATH | F_RESTORED | F_BRANCH |
F_MISPREDICT`` — all four are known at fetch/restore time in this
trace-driven model, so the stream needs no later "patch" events.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.common.statistics import Histogram

__all__ = [
    "EV_FETCH_BUNDLE", "EV_FETCH", "EV_ALLOC", "EV_RESOLVE", "EV_RETIRE",
    "EV_SQUASH", "EV_RESTORE", "EV_APF_JOB_START", "EV_APF_JOB_COMPLETE",
    "EV_APF_BUFFER_FILL", "EV_ICACHE_STALL", "EV_BTB_MISFETCH",
    "EVENT_NAMES", "F_WRONG_PATH", "F_RESTORED", "F_BRANCH", "F_MISPREDICT",
    "ObsSink", "EventRecorder", "UopLife", "replay_timelines",
]

EV_FETCH_BUNDLE = 0
EV_FETCH = 1
EV_ALLOC = 2
EV_RESOLVE = 3
EV_RETIRE = 4
EV_SQUASH = 5
EV_RESTORE = 6
EV_APF_JOB_START = 7
EV_APF_JOB_COMPLETE = 8
EV_APF_BUFFER_FILL = 9
EV_ICACHE_STALL = 10
EV_BTB_MISFETCH = 11

EVENT_NAMES = {
    EV_FETCH_BUNDLE: "fetch_bundle",
    EV_FETCH: "fetch",
    EV_ALLOC: "allocate",
    EV_RESOLVE: "resolve",
    EV_RETIRE: "retire",
    EV_SQUASH: "squash",
    EV_RESTORE: "restore",
    EV_APF_JOB_START: "apf_job_start",
    EV_APF_JOB_COMPLETE: "apf_job_complete",
    EV_APF_BUFFER_FILL: "apf_buffer_fill",
    EV_ICACHE_STALL: "icache_stall",
    EV_BTB_MISFETCH: "btb_misfetch",
}

F_WRONG_PATH = 1
F_RESTORED = 2
F_BRANCH = 4
F_MISPREDICT = 8


def _uop_flags(du) -> int:
    """Flag bitmask for one DynUop (all bits final at fetch/restore)."""
    flags = 0
    if du.wrong_path:
        flags |= F_WRONG_PATH
    if du.restored:
        flags |= F_RESTORED
    if du.static.is_branch:
        flags |= F_BRANCH
        if du.branch is not None and du.branch.mispredict:
            flags |= F_MISPREDICT
    return flags


class ObsSink:
    """No-op base sink: subclass and override the callbacks you need.

    The core calls these with live pipeline objects (DynUop,
    InflightBranch, Bundle, APFJob) — sinks must copy anything they keep,
    since the core mutates and recycles these records.
    """

    def on_fetch(self, cycle: int, bundle, ftq_len: int) -> None:
        """A bundle was fetched and appended to the FTQ."""

    def on_allocate(self, cycle: int, du, rob_len: int,
                    sched_len: int) -> None:
        """``du`` entered the backend (occupancies are post-insert)."""

    def on_resolve(self, cycle: int, rec) -> None:
        """Branch ``rec`` resolved (check ``rec.mispredict``)."""

    def on_retire(self, cycle: int, du) -> None:
        """``du`` retired."""

    def on_squash(self, cycle: int, after_seq: int) -> None:
        """Every live uop with ``seq > after_seq`` was squashed."""

    def on_restore(self, cycle: int, rec, dus) -> None:
        """APF restored ``dus`` (list of DynUop) for branch ``rec``."""

    def on_apf_job_start(self, cycle: int, rec) -> None:
        """The APF pipeline started fetching ``rec``'s alternate path."""

    def on_apf_job_complete(self, cycle: int, job) -> None:
        """An APF job left the pipeline (buffered, held, or DPIP-parked)."""

    def on_apf_buffer_fill(self, cycle: int, occupancy: int) -> None:
        """An alternate path moved into a buffer (occupancy post-fill)."""

    def on_icache_stall(self, cycle: int, extra: int) -> None:
        """Main fetch took an I-cache miss costing ``extra`` cycles."""

    def on_btb_misfetch(self, cycle: int, pc: int) -> None:
        """A taken branch missed the BTB (misfetch re-steer)."""


class EventRecorder(ObsSink):
    """Ring-buffer sink: compact event tuples + occupancy histograms.

    ``capacity`` bounds the ring (oldest events drop first; ``dropped``
    reports how many). ``occupancy`` holds one sparse
    :class:`~repro.common.statistics.Histogram` per subsystem — sampled at
    state-change events rather than per cycle, so the histograms too are
    identical under both loop drivers.
    """

    OCCUPANCY_KEYS = ("rob", "ftq", "scheduler", "apf_buffers")

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.events: Deque[tuple] = deque(maxlen=capacity)
        self.emitted = 0
        self.occupancy: Dict[str, Histogram] = {
            key: Histogram() for key in self.OCCUPANCY_KEYS}

    @property
    def dropped(self) -> int:
        return self.emitted - len(self.events)

    # -- sink callbacks ----------------------------------------------------

    def on_fetch(self, cycle, bundle, ftq_len):
        uops = bundle.uops
        events = self.events
        events.append((EV_FETCH_BUNDLE, cycle, uops[0].seq,
                       len(uops), ftq_len))
        for du in uops:
            events.append((EV_FETCH, cycle, du.seq, du.static.pc,
                           du.static.op.name, _uop_flags(du)))
        self.emitted += 1 + len(uops)
        self.occupancy["ftq"].add(ftq_len)

    def on_allocate(self, cycle, du, rob_len, sched_len):
        self.events.append((EV_ALLOC, cycle, du.seq, du.done_cycle,
                            rob_len, sched_len))
        self.emitted += 1
        self.occupancy["rob"].add(rob_len)
        self.occupancy["scheduler"].add(sched_len)

    def on_resolve(self, cycle, rec):
        self.events.append((EV_RESOLVE, cycle, rec.seq,
                            1 if rec.mispredict else 0))
        self.emitted += 1

    def on_retire(self, cycle, du):
        self.events.append((EV_RETIRE, cycle, du.seq))
        self.emitted += 1

    def on_squash(self, cycle, after_seq):
        self.events.append((EV_SQUASH, cycle, after_seq))
        self.emitted += 1

    def on_restore(self, cycle, rec, dus):
        events = self.events
        events.append((EV_RESTORE, cycle, rec.seq, len(dus)))
        for du in dus:
            events.append((EV_FETCH, cycle, du.seq, du.static.pc,
                           du.static.op.name, _uop_flags(du)))
        self.emitted += 1 + len(dus)

    def on_apf_job_start(self, cycle, rec):
        self.events.append((EV_APF_JOB_START, cycle, rec.seq, rec.pc))
        self.emitted += 1

    def on_apf_job_complete(self, cycle, job):
        self.events.append((EV_APF_JOB_COMPLETE, cycle, job.branch.seq,
                            len(job.uops), 1 if job.terminated else 0,
                            1 if job.dead else 0))
        self.emitted += 1

    def on_apf_buffer_fill(self, cycle, occupancy):
        self.events.append((EV_APF_BUFFER_FILL, cycle, occupancy))
        self.emitted += 1
        self.occupancy["apf_buffers"].add(occupancy)

    def on_icache_stall(self, cycle, extra):
        self.events.append((EV_ICACHE_STALL, cycle, extra))
        self.emitted += 1

    def on_btb_misfetch(self, cycle, pc):
        self.events.append((EV_BTB_MISFETCH, cycle, pc))
        self.emitted += 1

    # -- summaries ---------------------------------------------------------

    def occupancy_rows(self) -> List[Tuple[str, float, float, float, int]]:
        """``(subsystem, p50, p90, mean, samples)`` per non-empty
        histogram, ready for a report table."""
        rows = []
        for key in self.OCCUPANCY_KEYS:
            hist = self.occupancy[key]
            total = hist.total()
            if not total:
                continue
            rows.append((key, hist.percentile(50), hist.percentile(90),
                         hist.mean(), total))
        return rows


class UopLife:
    """Per-uop lifecycle replayed from a recorded event stream: the
    fetch, allocate, done, retire and squash cycles of one dynamic uop,
    plus its fetch-time flags."""

    __slots__ = ("seq", "pc", "op", "flags", "fetch_cycle",
                 "allocate_cycle", "done_cycle", "retire_cycle",
                 "squash_cycle")

    def __init__(self, seq: int, pc: int, op: str, flags: int,
                 fetch_cycle: int) -> None:
        self.seq = seq
        self.pc = pc
        self.op = op
        self.flags = flags
        self.fetch_cycle = fetch_cycle
        self.allocate_cycle: Optional[int] = None
        self.done_cycle: Optional[int] = None
        self.retire_cycle: Optional[int] = None
        self.squash_cycle: Optional[int] = None

    @property
    def wrong_path(self) -> bool:
        return bool(self.flags & F_WRONG_PATH)

    @property
    def restored(self) -> bool:
        return bool(self.flags & F_RESTORED)

    @property
    def is_branch(self) -> bool:
        return bool(self.flags & F_BRANCH)

    @property
    def mispredict(self) -> bool:
        return bool(self.flags & F_MISPREDICT)

    @property
    def final_cycle(self) -> int:
        for value in (self.retire_cycle, self.squash_cycle,
                      self.done_cycle, self.allocate_cycle):
            if value is not None:
                return value
        return self.fetch_cycle


def replay_timelines(events: Iterable[tuple]) -> Dict[int, UopLife]:
    """Reconstruct per-uop lifecycles from a recorded event stream.

    Relies on the core's seq invariant: seqs are handed out in fetch
    order and never rewound (restored uops get fresh, higher seqs), so
    the not-yet-retired population is always a seq-ordered window and a
    squash removes exactly its ``seq > after_seq`` suffix. Events for
    seqs that fell out of a saturated ring are silently ignored, so a
    truncated stream replays to a truncated-but-consistent result.
    """
    lives: Dict[int, UopLife] = {}
    live: Deque[UopLife] = deque()    # fetched, not retired/squashed
    for event in events:
        kind = event[0]
        if kind == EV_FETCH:
            _, cycle, seq, pc, op, flags = event
            life = UopLife(seq, pc, op, flags, cycle)
            lives[seq] = life
            live.append(life)
        elif kind == EV_ALLOC:
            _, cycle, seq, done_cycle, _rob, _sched = event
            life = lives.get(seq)
            if life is not None:
                life.allocate_cycle = cycle
                life.done_cycle = done_cycle
        elif kind == EV_RETIRE:
            _, cycle, seq = event
            life = lives.get(seq)
            if life is not None:
                life.retire_cycle = cycle
                while live and live[0].retire_cycle is not None:
                    live.popleft()
        elif kind == EV_SQUASH:
            _, cycle, after_seq = event
            while live and live[-1].seq > after_seq:
                live.pop().squash_cycle = cycle
    return lives
