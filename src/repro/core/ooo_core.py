"""The out-of-order core: cycle loop, allocate/retire, recovery, APF glue.

One :class:`OoOCore` simulates one configuration over one dynamic trace.
The frontend is the latency-pipe model of :mod:`repro.core.fetch_engine`;
the backend computes issue/completion timing at allocation with real FU and
cache contention; branches resolve at their computed completion cycle, at
which point recovery either pays the full pipeline re-fill delay or — with
APF — restores the buffered alternate path (Section V-G).

The main loop is event-driven: after executing a cycle the core asks every
stage for its next actionable cycle (:meth:`OoOCore._next_cycle`) and jumps
``now`` straight there when the intervening cycles are provably idle. A
forced reference mode (``run(..., cycle_by_cycle=True)``) ticks every cycle
instead; both modes are bit-identical in timing and statistics (see
``docs/ARCHITECTURE.md`` and ``tests/test_loop_equivalence.py``).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.backend.exec_model import ExecModel
from repro.branch.banking import BankedTage
from repro.branch.btb import BTB
from repro.branch.gshare import Gshare
from repro.branch.h2p import H2PTable
from repro.branch.indirect import IndirectPredictor
from repro.branch.tage import TageSCL
from repro.common.config import CoreConfig, FetchScheme
from repro.common.statistics import StatGroup
from repro.frontend.rename import RenameTable
from repro.isa.opcodes import BranchKind, Op
from repro.memory.cache import CacheHierarchy
from repro.memory.tlb import TLB
from repro.workloads.program import Program
from repro.workloads.trace import DynamicTrace

from repro.core.apf import AlternatePathBuffer, APFEngine
from repro.core.block_cache import BlockCache
from repro.core.fetch_engine import (
    STALL_BTB,
    STALL_ICACHE,
    BranchUnit,
    MainFetchEngine,
    synthetic_address,
)
from repro.core.uops import BufferedUop, DynUop, InflightBranch

__all__ = ["OoOCore"]

#: branch kinds that resolve through the event heap (everything that can
#: mispredict: direct jumps/calls never enqueue a resolution event)
_EVENT_KINDS = (BranchKind.CONDITIONAL, BranchKind.RETURN,
                BranchKind.INDIRECT)


def _materialize_ras(main_snapshot: Tuple[int, ...],
                     ras_state: Tuple[Tuple[int, ...], int]) \
        -> Tuple[int, ...]:
    """Combine the main-RAS snapshot with a shadow-RAS overlay state into a
    concrete stack (used as the checkpoint of a restored branch)."""
    overlay, pops = ras_state
    base = list(main_snapshot)
    if pops:
        base = base[:-pops] if pops <= len(base) else []
    return tuple(base) + tuple(overlay)


class OoOCore:
    def __init__(self, config: CoreConfig, program: Program,
                 trace: DynamicTrace, seed: int = 1234) -> None:
        self.config = config
        self.program = program
        self.trace = trace
        self.stats = StatGroup("core")

        # prediction structures
        apf_cfg = config.apf
        banks = 1
        if apf_cfg.enabled and apf_cfg.fetch_scheme == FetchScheme.BANKED:
            banks = apf_cfg.tage_banks
        elif config.baseline_tage_banks > 1:
            banks = config.baseline_tage_banks
        if config.predictor_kind == "gshare":
            predictor = Gshare(config.gshare, seed=seed)
        elif config.predictor_kind == "perceptron":
            from repro.branch.perceptron import HashedPerceptron
            predictor = HashedPerceptron(seed=seed)
        elif config.predictor_kind != "tage":
            raise ValueError(
                f"unknown predictor kind {config.predictor_kind!r}")
        elif banks > 1:
            predictor = BankedTage(config.tage, banks, seed=seed)
            predictor.prime_pc_map(program.code_base, len(program))
        else:
            predictor = TageSCL(config.tage, seed=seed)
        self.h2p_table = H2PTable(apf_cfg.h2p)
        self.branch_unit = BranchUnit(
            predictor, BTB(config.btb), IndirectPredictor(), self.h2p_table)

        # memory
        self.hierarchy = CacheHierarchy(config.memory)
        self.dtlb = TLB(config.memory.dtlb, "dtlb")

        # pipeline
        self.fetch = MainFetchEngine(program, trace, self.branch_unit,
                                     self.hierarchy, config, self.stats)
        fold_specs = getattr(predictor, "fold_specs", None)
        if fold_specs is not None:
            # the main history maintains the predictor's folded histories
            # incrementally (bit-identical to recomputation; history.py)
            self.fetch.history.attach_folds(*fold_specs())
        self.rename = RenameTable()
        self.exec = ExecModel(config.backend)
        self.rob: Deque[DynUop] = deque()
        self.ftq: Deque[List] = deque()      # [bundle, next_index]
        self.restore_queue: Deque[Tuple[int, DynUop]] = deque()
        self.inflight: Deque[InflightBranch] = deque()
        self.events: List[Tuple[int, int, InflightBranch]] = []
        self.sched_heap: List[int] = []      # issue cycles of allocated uops
        self.load_count = 0
        self.store_count = 0

        # block-grain frontend fast path: precomputed decode/dependence
        # templates keyed by block start PC (see repro.core.block_cache).
        # Built before the APF engine so the shadow fetch can share the
        # cache's interned straight-line BufferedUop prototypes.
        self.block_cache = BlockCache(program, self.exec,
                                      config.frontend.width)

        self.apf: Optional[APFEngine] = None
        if apf_cfg.enabled:
            self.apf = APFEngine(apf_cfg, self.branch_unit, program,
                                 self.hierarchy, config.frontend, self.stats,
                                 block_cache=self.block_cache)

        # structural limits and loop constants, cached off the config
        be = config.backend
        self._allocate_width = be.allocate_width
        self._retire_width = be.retire_width
        self._rob_entries = be.rob_entries
        self._sched_entries = be.scheduler_entries
        self._lq_entries = be.load_queue_entries
        self._sq_entries = be.store_queue_entries
        self._agen_latency = be.agen_latency
        self._ftq_entries = config.frontend.fetch_queue_entries
        self._trim_mask = config.exec_trim_mask
        self._trim_horizon = config.exec_trim_horizon
        # the scheme is compared by value once, here: a config that went
        # through pickle (a spawned worker) holds equal, not identical,
        # strings
        scheme = apf_cfg.fetch_scheme if apf_cfg.enabled else None
        self._time_shared = scheme == FetchScheme.TIME_SHARED
        self._dual_port = scheme == FetchScheme.DUAL_PORT
        self._ts_main = apf_cfg.timeshare_main_cycles
        self._ts_period = (apf_cfg.timeshare_main_cycles
                           + apf_cfg.timeshare_alt_cycles)

        # Only the BANKED scheme ever reads the per-cycle bank sets, so
        # every other configuration skips that bookkeeping.
        self.fetch.publish_banks = scheme == FetchScheme.BANKED
        self._done_scratch = [0] * config.frontend.width

        # hot-path counter cells (see repro.common.statistics.StatCell)
        stats = self.stats
        self._c_recoveries = stats.counter("recoveries")
        self._c_apf_restores = stats.counter("apf_restores")
        self._c_apf_restored_uops = stats.counter("apf_restored_uops")
        self._c_retired_loads = stats.counter("retired_loads")
        self._c_retired_stores = stats.counter("retired_stores")
        self._c_retire_out_of_order = stats.counter("retire_out_of_order")
        self._c_cond_branches = stats.counter("cond_branches")
        self._c_cond_mispredicts = stats.counter("cond_mispredicts")
        self._c_h2p_marked = stats.counter("h2p_marked")
        self._c_h2p_marked_mis = stats.counter("h2p_marked_mis")
        self._c_lowconf_marked = stats.counter("lowconf_marked")
        self._c_lowconf_marked_mis = stats.counter("lowconf_marked_mis")
        self._c_indirect_branches = stats.counter("indirect_branches")
        self._c_indirect_mispredicts = stats.counter("indirect_mispredicts")
        self._c_returns = stats.counter("returns")
        self._c_return_mispredicts = stats.counter("return_mispredicts")
        self._c_stall_rob = stats.counter("stall_rob_full")
        self._c_stall_sched = stats.counter("stall_scheduler_full")
        self._c_stall_lq = stats.counter("stall_lq_full")
        self._c_stall_sq = stats.counter("stall_sq_full")
        self._c_stall_ftq = stats.counter("stall_ftq_full")
        self._c_timeshare_alt = stats.counter("timeshare_alt_cycles")
        self._c_cycle_cap_hit = stats.counter("cycle_cap_hit")

        # CPI-stack slot attribution (taxonomy owned by
        # repro.obs.accounting; the core only fills these collect-gated
        # cells, so the stack flows through warmup gating, measured(),
        # snapshot/restore and sampling diffs like any other counter).
        # cpi_frontend_itlb is reserved in the taxonomy but has no cell:
        # the fetch path models no ITLB.
        self._c_cpi_base = stats.counter("cpi_base")
        self._c_cpi_wrong_path = stats.counter("cpi_bad_spec_wrong_path")
        self._c_cpi_refill_covered = stats.counter(
            "cpi_bad_spec_refill_apf_covered")
        self._c_cpi_refill_uncovered = stats.counter(
            "cpi_bad_spec_refill_apf_uncovered")
        self._c_cpi_refill_non_h2p = stats.counter(
            "cpi_bad_spec_refill_non_h2p")
        self._c_cpi_fe_icache = stats.counter("cpi_frontend_icache")
        self._c_cpi_fe_btb = stats.counter("cpi_frontend_btb_redirect")
        self._c_cpi_fe_ftq_empty = stats.counter("cpi_frontend_ftq_empty")
        self._c_cpi_be_rob = stats.counter("cpi_backend_rob")
        self._c_cpi_be_sched = stats.counter("cpi_backend_scheduler")
        self._c_cpi_be_lq = stats.counter("cpi_backend_lq")
        self._c_cpi_be_sq = stats.counter("cpi_backend_sq")
        self._c_cpi_be_dram = stats.counter("cpi_backend_dram")
        self._c_cpi_retire_bw = stats.counter("cpi_retire_bw")
        # a rob-full stall whose head load is still further from completion
        # than a full on-chip hit chain is DRAM-bound
        mem = config.memory
        self._dram_bound_lat = (mem.dcache.hit_latency + mem.l2.hit_latency
                                + mem.llc.hit_latency)

        self.now = 0
        self.retired = 0
        self.warmup_target = 0
        self.warmup_cycle = -1
        self.warmup_snapshot: dict = {}
        self._collect = True   # statistics collection flag (post-warmup)
        #: stall counter a blocked allocation would fire during a skipped
        #: window (set by _next_cycle, batched by _run_skipping)
        self._stall_cell = None
        #: refill-attribution cell armed by a mispredict recovery and
        #: disarmed by the next allocation: idle allocation slots in
        #: between are re-fill penalty of that recovery's coverage class
        self._refill_cell = None
        #: cpi_base + cpi_bad_spec_wrong_path at the last accounted cycle;
        #: _account_cycle diffs against it to find this cycle's fill
        self._last_alloc_total = 0
        #: latched True when a run() exhausts max_cycles before retiring its
        #: target — surfaced as a warning in the run manifest
        self.cycle_cap_hit = False
        #: attached observability sink (repro.obs.ObsSink protocol); None
        #: keeps every instrumentation point at one truthy check
        self._obs = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def attach_obs(self, sink) -> None:
        """Attach an observability sink (see :mod:`repro.obs.events`).

        The sink receives a callback at every pipeline state change —
        identically under both loop drivers. The core never imports
        :mod:`repro.obs`; any object with the :class:`~repro.obs.ObsSink`
        callbacks works, and :class:`~repro.obs.EventRecorder` is the one
        the trace views read. Detach (or never attach) for performance
        runs: the disabled path costs one ``is not None`` check per
        phase.
        """
        self._obs = sink
        self.fetch.obs = sink
        if self.apf is not None:
            self.apf.obs = sink

    def detach_obs(self) -> None:
        """Remove the attached sink, restoring the zero-overhead path."""
        self._obs = None
        self.fetch.obs = None
        if self.apf is not None:
            self.apf.obs = None

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, max_instructions: int, warmup: int = 0,
            max_cycles: int = 0, cycle_by_cycle: bool = False) -> None:
        """Simulate until ``max_instructions`` retire (or ``max_cycles``).

        The default loop skips over provably idle cycles; pass
        ``cycle_by_cycle=True`` to force the plain per-cycle reference
        loop. Both modes produce bit-identical timing and statistics.
        """
        self.warmup_target = warmup
        self._set_collect(warmup == 0)
        # a fresh run gets a fresh cap verdict: without this reset, a
        # capped interval would leave every later run() on this core (the
        # sampling simulator calls run() per interval) reporting a stale
        # cap (the _c_cycle_cap_hit counter still accumulates across runs)
        self.cycle_cap_hit = False
        if not max_cycles:
            max_cycles = 400 * max_instructions
        target = min(max_instructions, len(self.trace))
        if cycle_by_cycle:
            self._run_reference(target, max_cycles)
        else:
            self._run_skipping(target, max_cycles)
        if self.retired < target and self.now >= max_cycles:
            self.cycle_cap_hit = True
            self._c_cycle_cap_hit.value += 1
        self.stats.set("cycles", self.now)
        self.stats.set("retired", self.retired)

    def _run_reference(self, target: int, max_cycles: int) -> None:
        """The pre-optimization loop: tick every cycle."""
        trim_mask = self._trim_mask
        trim_horizon = self._trim_horizon
        events = self.events
        rob = self.rob
        while self.retired < target and self.now < max_cycles:
            now = self.now
            # the gated phases open with exactly these head-due checks, so
            # skipping the call is the no-op the phase would have been
            if events and events[0][0] <= now:
                self._process_events()
            if rob and rob[0].done_cycle <= now:
                self._retire()
            self._allocate()
            self._fetch_and_apf()
            if self._collect:
                self._account_cycle()
            self.now += 1
            if (self.now & trim_mask) == 0:
                self.exec.trim(self.now - trim_horizon)

    def _run_skipping(self, target: int, max_cycles: int) -> None:
        """Event-driven loop: execute a cycle, then jump to the next
        actionable one.

        The only per-cycle statistics a skipped window would have produced
        are the stall counters: ``stall_ftq_full`` (the frontend spinning
        against a full fetch queue) and whichever single backend stall
        counter a blocked head-of-queue allocation fires (the first failing
        backend-space check in :meth:`_allocate` is a pure function of
        state that cannot change inside the window). Both are
        batch-incremented by the skip length; every other skipped cycle is
        a complete no-op by construction of :meth:`_next_cycle`.
        """
        trim_mask = self._trim_mask
        trim_horizon = self._trim_horizon
        next_trim = (self.now | trim_mask) + 1
        ftq = self.ftq
        ftq_entries = self._ftq_entries
        stall_ftq = self._c_stall_ftq
        events = self.events
        rob = self.rob
        while self.retired < target and self.now < max_cycles:
            now = self.now
            if events and events[0][0] <= now:
                self._process_events()
            if rob and rob[0].done_cycle <= now:
                self._retire()
            self._allocate()
            self._fetch_and_apf()
            if self._collect:
                self._account_cycle()
            if self.retired >= target:
                # the reference loop ticks once more before noticing the
                # target was hit; mirror that, not a wakeup jump
                self.now += 1
                if self.now >= next_trim:
                    self.exec.trim(self.now - trim_horizon)
                break
            self._stall_cell = None
            nxt = self._next_cycle()
            if nxt is None or nxt > max_cycles:
                # deadlocked (or capped): nothing can ever progress, so the
                # reference loop would spin idle to the cycle cap
                nxt = max_cycles
            skipped = nxt - self.now - 1
            if skipped > 0:
                if self._collect:
                    cell = self._stall_cell
                    if cell is not None:
                        cell.value += skipped
                    if len(ftq) >= ftq_entries:
                        stall_ftq.value += skipped
                    # every skipped cycle would have attributed a full
                    # width of idle slots; the classification inputs are
                    # constant inside the window (same argument as
                    # _stall_cell)
                    self._account_idle(now + 1, nxt - 1,
                                       self._allocate_width)
            self.now = nxt
            if nxt >= next_trim:
                self.exec.trim(nxt - trim_horizon)
                next_trim = (nxt | trim_mask) + 1

    def _next_cycle(self) -> Optional[int]:
        """Earliest cycle after ``now`` at which any stage can progress,
        or ``None`` if no stage can ever progress again.

        Called after the current cycle's phases have run, so anything
        actionable at or before ``now`` means "try again next cycle"
        (``now + 1``) — that keeps budget-limited retire/allocate
        accounting exactly as the reference loop produces it. Skips
        therefore only open up when every queue head is provably parked
        until a known future cycle:

        * the event heap's next branch resolution,
        * the ROB head's completion cycle,
        * the restore queue / FTQ head's ready cycle — or, when the head
          is ready but *blocked* on a full backend structure, the cycle
          that structure can change occupancy (ROB/LQ/SQ drain only at
          retire or flush, both already wake candidates; a full scheduler
          frees slots when its earliest entry expires). A blocked head
          fires exactly one stall counter per reference cycle, recorded
          in ``_stall_cell`` for the caller to batch,
        * the fetch engine's own wakeup (only when the FTQ has room —
          a full FTQ gates fetch entirely), and
        * the APF engine's wakeup.
        """
        now = self.now
        horizon = now + 1
        best = None
        rob = self.rob
        if rob:
            t = rob[0].done_cycle
            if t <= horizon:
                return horizon
            best = t
        events = self.events
        if events:
            t = events[0][0]
            if t <= horizon:
                return horizon
            if best is None or t < best:
                best = t
        pending = None
        rq = self.restore_queue
        if rq:
            t = rq[0][0]
            if t <= now:
                pending = rq[0][1]
            else:
                if t == horizon:
                    return horizon
                if best is None or t < best:
                    best = t
        ftq = self.ftq
        if ftq:
            head = ftq[0]
            bundle = head[0]
            if head[1] >= len(bundle.uops):
                return horizon   # exhausted head bundle: popped next cycle
            if pending is None:
                t = bundle.ready_cycle
                if t <= now:
                    pending = bundle.uops[head[1]]
                else:
                    if t == horizon:
                        return horizon
                    if best is None or t < best:
                        best = t
        if pending is not None:
            # a ready head that this cycle's _allocate did not take: either
            # the backend is full (skippable; the same stall counter fires
            # every cycle until a wake source frees the structure) or the
            # allocate budget ran out (real progress next cycle)
            if len(rob) >= self._rob_entries:
                self._stall_cell = self._c_stall_rob
            elif len(self.sched_heap) >= self._sched_entries:
                self._stall_cell = self._c_stall_sched
                # scheduler slots also free by pure passage of time: the
                # heap head is its earliest expiry (> now — _allocate
                # already popped everything due)
                t = self.sched_heap[0]
                if t <= horizon:
                    return horizon
                if best is None or t < best:
                    best = t
            else:
                op = pending.static.op
                if op is Op.LOAD and self.load_count >= self._lq_entries:
                    self._stall_cell = self._c_stall_lq
                elif op is Op.STORE \
                        and self.store_count >= self._sq_entries:
                    self._stall_cell = self._c_stall_sq
                else:
                    return horizon
        if len(ftq) < self._ftq_entries:
            t = self.fetch.next_wakeup(now)
            if t is not None:
                if t <= horizon:
                    return horizon
                if best is None or t < best:
                    best = t
        apf = self.apf
        if apf is not None:
            t = apf.next_wakeup(now, self.inflight)
            if t is not None:
                if t <= horizon:
                    return horizon
                if best is None or t < best:
                    best = t
        return best

    # ------------------------------------------------------------------
    # CPI-stack slot accounting (taxonomy: repro.obs.accounting)
    # ------------------------------------------------------------------

    def _account_cycle(self) -> None:
        """Attribute this executed cycle's idle allocation slots.

        Filled slots were attributed at allocation time
        (:meth:`_allocate_uop` bumps ``cpi_base`` or the wrong-path
        leaf); whatever is left of the allocate width is classified from
        post-phase state by :meth:`_account_idle`.
        """
        total = self._c_cpi_base.value + self._c_cpi_wrong_path.value
        left = self._allocate_width - (total - self._last_alloc_total)
        self._last_alloc_total = total
        if left > 0:
            now = self.now
            self._account_idle(now, now, left)

    def _account_idle(self, start: int, end: int, slots: int) -> None:
        """Attribute ``slots`` idle allocation slots per cycle over the
        inclusive cycle range ``[start, end]`` to exactly one CPI leaf
        each.

        Shared by both drivers: an executed cycle passes its own
        leftover (``start == end``), the skipping loop passes a whole
        skipped window at full width. Every classification input is
        provably constant inside a skipped window — state only mutates
        on executed cycles, and :meth:`_next_cycle` ends the window at
        the earliest cycle anything could change — except two pure
        functions of the cycle index (the rob-full DRAM split and the
        in-flight bundle's pipe-vs-icache split), which are integrated
        over the range in O(1).
        """
        ncycles = end - start + 1
        total = slots * ncycles
        # mirror _allocate's head selection: restore queue first, then FTQ
        pending = None
        rq = self.restore_queue
        if rq and rq[0][0] <= start:
            pending = rq[0][1]
        ftq = self.ftq
        if pending is None and ftq:
            head = ftq[0]
            bundle = head[0]
            if head[1] < len(bundle.uops) and bundle.ready_cycle <= start:
                pending = bundle.uops[head[1]]
        if pending is not None:
            # ready supply the backend refused: same check order as
            # _allocate, so the leaf agrees with the raw stall counter
            rob = self.rob
            if len(rob) >= self._rob_entries:
                du = rob[0]
                done = du.done_cycle
                if done <= start:
                    # head complete yet the ROB is still full: the drain
                    # is retire-bandwidth limited (never true inside a
                    # window — completion is a wake source)
                    self._c_cpi_retire_bw.value += total
                elif du.static.op is Op.LOAD:
                    # cycles further than a full on-chip hit chain from
                    # the head load's completion are DRAM-bound
                    dram_last = done - self._dram_bound_lat - 1
                    if dram_last > end:
                        dram_last = end
                    n_dram = dram_last - start + 1
                    if n_dram > 0:
                        dram = slots * n_dram
                        self._c_cpi_be_dram.value += dram
                        self._c_cpi_be_rob.value += total - dram
                    else:
                        self._c_cpi_be_rob.value += total
                else:
                    self._c_cpi_be_rob.value += total
            elif len(self.sched_heap) >= self._sched_entries:
                self._c_cpi_be_sched.value += total
            else:
                op = pending.static.op
                if op is Op.LOAD and self.load_count >= self._lq_entries:
                    self._c_cpi_be_lq.value += total
                elif op is Op.STORE \
                        and self.store_count >= self._sq_entries:
                    self._c_cpi_be_sq.value += total
                else:
                    # unreachable by _allocate's postcondition (a ready
                    # head with backend space is only left by budget
                    # exhaustion, which leaves no idle slots); keep the
                    # invariant anyway by calling the slots useful
                    self._c_cpi_base.value += total
                    self._last_alloc_total += total
            return
        cell = self._refill_cell
        if cell is not None:
            # between a mispredict recovery and the next allocation every
            # idle slot is re-fill penalty of that recovery's class
            cell.value += total
            return
        if rq:
            # staggered APF restore in flight: gap cycles between restore
            # groups are residual covered-refill penalty
            self._c_cpi_refill_covered.value += total
            return
        if ftq:
            head = ftq[0]
            bundle = head[0]
            if head[1] < len(bundle.uops):
                ready = bundle.ready_cycle
                if ready > start:
                    # head in flight: pipe-traversal cycles count as
                    # frontend latency, the icache-extension tail as
                    # icache-bound
                    icache_first = ready - bundle.icache_extra
                    if icache_first < start:
                        icache_first = start
                    n_icache = end - icache_first + 1
                    if n_icache > 0:
                        ic = slots * n_icache
                        self._c_cpi_fe_icache.value += ic
                        self._c_cpi_fe_ftq_empty.value += total - ic
                    else:
                        self._c_cpi_fe_ftq_empty.value += total
                    return
            # exhausted head bundle: plain frontend bubble
            self._c_cpi_fe_ftq_empty.value += total
            return
        fetch = self.fetch
        if fetch.stall_until > start:
            cause = fetch.stall_cause
            if cause == STALL_BTB:
                self._c_cpi_fe_btb.value += total
            elif cause == STALL_ICACHE:
                self._c_cpi_fe_icache.value += total
            else:
                self._c_cpi_fe_ftq_empty.value += total
            return
        # dead fetch, exhausted trace, or end-of-run drain
        self._c_cpi_fe_ftq_empty.value += total

    # measured-window helpers ------------------------------------------------

    def _set_collect(self, flag: bool) -> None:
        """Flip statistics collection for the core and both fetch paths."""
        self._collect = flag
        self.fetch.collect = flag
        if self.apf is not None:
            self.apf.collect = flag

    def _cross_warmup(self) -> None:
        self.warmup_cycle = self.now
        self.warmup_snapshot = self.stats.snapshot()
        self._set_collect(True)

    def measured(self, key: str) -> int:
        return self.stats.get(key) - self.warmup_snapshot.get(key, 0)

    def measured_cycles(self) -> int:
        start = self.warmup_cycle if self.warmup_cycle >= 0 else 0
        return self.now - start

    def measured_instructions(self) -> int:
        return self.retired - min(self.warmup_target, self.retired)

    def ipc(self) -> float:
        cycles = self.measured_cycles()
        return self.measured_instructions() / cycles if cycles else 0.0

    def branch_mpki(self) -> float:
        instrs = self.measured_instructions()
        if not instrs:
            return 0.0
        return 1000.0 * self.measured("cond_mispredicts") / instrs

    # ------------------------------------------------------------------
    # checkpointing (sampling support)
    # ------------------------------------------------------------------

    def quiesce(self) -> None:
        """Squash every speculative/in-flight structure down to the
        architectural boundary of the last retired instruction.

        After this call the pipeline is empty, fetch sits on the trace at
        index ``retired``, and the speculative history/RAS hold their
        architectural values — the state a checkpoint may be taken from.
        ``now`` is not touched; timing simply resumes from the current
        cycle.
        """
        if self.inflight:
            # the oldest unretired branch's checkpoints ARE the
            # architectural history/RAS at the retire boundary: every older
            # branch has retired (its outcome is in the checkpoint) or been
            # squashed (recovery undid its push)
            oldest = self.inflight[0]
            self.fetch.history.restore(oldest.hist_checkpoint)
            self.fetch.ras.restore(oldest.ras_checkpoint)
        for du in self.rob:
            du.squashed = True
        self.rob.clear()
        self.ftq.clear()
        self.restore_queue.clear()
        for rec in self.inflight:
            rec.squashed = True
        self.inflight.clear()
        self.events.clear()
        self.sched_heap.clear()
        self.exec.clear()
        self.load_count = 0
        self.store_count = 0
        if self.apf is not None:
            self.apf.clear()
        self.fetch.new_branches = []
        self.fetch.redirect_on_trace(self.retired, self.now)
        # squashed producers' values are architecturally available now
        self.rename.settle(self.now)
        # any in-progress refill window died with the pipeline
        self._refill_cell = None

    def snapshot(self) -> dict:
        """Capture the full core state at a quiescent point.

        Raises if the pipeline is not empty — call :meth:`quiesce` first.
        The snapshot is a plain nested dict (no live object references), so
        restoring it later is exact even after further simulation.
        """
        if self.rob or self.ftq or self.inflight or self.restore_queue \
                or self.events:
            raise RuntimeError("snapshot() requires a quiesced core "
                               "(call quiesce() first)")
        return {
            "now": self.now,
            "retired": self.retired,
            "warmup_target": self.warmup_target,
            "warmup_cycle": self.warmup_cycle,
            "warmup_snapshot": dict(self.warmup_snapshot),
            "collect": self._collect,
            "stats": self.stats.state(),
            "fetch": self.fetch.snapshot(),
            "rename": self.rename.snapshot(),
            "exec": self.exec.snapshot(),
            "predictor": self.branch_unit.predictor.snapshot(),
            "btb": self.branch_unit.btb.snapshot(),
            "indirect": self.branch_unit.indirect.snapshot(),
            "h2p": self.h2p_table.snapshot(),
            "hierarchy": self.hierarchy.snapshot(),
            "dtlb": self.dtlb.snapshot(),
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`. The pipeline comes back empty."""
        self.rob.clear()
        self.ftq.clear()
        self.restore_queue.clear()
        self.inflight.clear()
        self.events.clear()
        self.sched_heap.clear()
        self.load_count = 0
        self.store_count = 0
        if self.apf is not None:
            self.apf.clear()
        self.now = state["now"]
        self.retired = state["retired"]
        self.warmup_target = state["warmup_target"]
        self.warmup_cycle = state["warmup_cycle"]
        self.warmup_snapshot = dict(state["warmup_snapshot"])
        self._set_collect(state["collect"])
        self.stats.load_state(state["stats"])
        self._refill_cell = None
        # at any cycle boundary the accounted-fill baseline equals the
        # fill cells themselves (every collected cycle re-syncs it), so
        # it is derivable rather than snapshotted
        self._last_alloc_total = (self._c_cpi_base.value
                                  + self._c_cpi_wrong_path.value)
        self.fetch.restore(state["fetch"])
        self.rename.restore_state(state["rename"])
        self.exec.restore(state["exec"])
        self.branch_unit.predictor.restore(state["predictor"])
        self.branch_unit.btb.restore(state["btb"])
        self.branch_unit.indirect.restore(state["indirect"])
        self.h2p_table.restore(state["h2p"])
        self.hierarchy.restore(state["hierarchy"])
        self.dtlb.restore(state["dtlb"])

    # ------------------------------------------------------------------
    # resolve / recovery
    # ------------------------------------------------------------------

    def _process_events(self) -> None:
        events = self.events
        now = self.now
        if not events or events[0][0] > now:
            return
        heappop = heapq.heappop
        while events and events[0][0] <= now:
            rec = heappop(events)[2]
            if rec.squashed or rec.resolved:
                continue
            self._resolve(rec)

    def _resolve(self, rec: InflightBranch) -> None:
        rec.resolved = True
        obs = self._obs
        if obs is not None:
            obs.on_resolve(self.now, rec)
        if not rec.mispredict:
            if self.apf is not None:
                self.apf.release_branch(rec)
            return
        self._c_recoveries.value += 1
        if rec.is_conditional:
            self.h2p_table.record_misprediction(rec.pc)
        self._flush_younger(rec.seq)
        self.rename.restore(rec.rat_checkpoint)

        buffer = self.apf.capture(rec) if self.apf is not None else None
        if self._collect and rec.is_conditional:
            hist = self.stats.histogram("refill_saved")
            if buffer is not None and buffer.uops:
                saved = min(buffer.fetch_cycles,
                            self.config.apf.pipeline_depth)
                hist.add(saved)
            elif rec.h2p_marked or rec.low_conf:
                hist.add(0)
            else:
                hist.add(-1)   # misprediction on a branch never marked
        # arm the refill-attribution class for the idle slots between this
        # recovery and the next allocation; mirrors the refill_saved
        # histogram's coverage buckets (non-conditional mispredicts are
        # never marked, so they land in non-h2p)
        if buffer is not None and buffer.uops:
            self._refill_cell = self._c_cpi_refill_covered
        elif rec.h2p_marked or rec.low_conf:
            self._refill_cell = self._c_cpi_refill_uncovered
        else:
            self._refill_cell = self._c_cpi_refill_non_h2p
        if buffer is not None and buffer.uops:
            self._c_apf_restores.value += 1
            self._restore_from_buffer(rec, buffer)
        else:
            self._plain_recovery(rec)

    def _plain_recovery(self, rec: InflightBranch) -> None:
        fetch = self.fetch
        fetch.history.restore(rec.hist_checkpoint)
        if rec.is_conditional:
            fetch.history.push(rec.actual_taken, rec.pc)
        fetch.ras.restore(rec.ras_checkpoint)
        if rec.kind is BranchKind.RETURN:
            fetch.ras.pop()
        fetch.redirect_on_trace(rec.recovery_cursor, self.now)

    def _flush_younger(self, seq: int) -> None:
        rob = self.rob
        while rob and rob[-1].seq > seq:
            du = rob.pop()
            du.squashed = True
            if du.static.op is Op.LOAD:
                self.load_count -= 1
            elif du.static.op is Op.STORE:
                self.store_count -= 1
        ftq = self.ftq
        while ftq:
            bundle, index = ftq[-1]
            if bundle.uops[index].seq > seq:
                ftq.pop()
                continue
            while bundle.uops and bundle.uops[-1].seq > seq:
                bundle.uops.pop()
            break
        rq = self.restore_queue
        while rq and rq[-1][1].seq > seq:
            rq.pop()
        inflight = self.inflight
        while inflight and inflight[-1].seq > seq:
            rec = inflight.pop()
            rec.squashed = True
            if self.apf is not None:
                self.apf.release_branch(rec)
        obs = self._obs
        if obs is not None:
            obs.on_squash(self.now, seq)

    # ------------------------------------------------------------------
    # APF restore (Section V-G)
    # ------------------------------------------------------------------

    def _restore_from_buffer(self, rec: InflightBranch,
                             buffer: AlternatePathBuffer) -> None:
        fe = self.config.frontend
        apf_depth = self.config.apf.pipeline_depth
        offset = max(0, fe.depth - apf_depth)
        bypass_alloc = apf_depth >= fe.depth + 2   # DPIP-17: already allocated
        cursor = rec.recovery_cursor
        on_trace = True
        trace = self.trace
        fetch = self.fetch
        obs = self._obs
        restored_dus = [] if obs is not None else None

        for index, bu in enumerate(buffer.uops):
            su = bu.static
            trace_index = -1
            if on_trace and cursor >= len(trace):
                # the trace ends inside the buffered path; stop restoring —
                # there is no architectural ground truth past this point
                break
            if on_trace and trace.uops[cursor].pc == su.pc:
                trace_index = cursor
            else:
                on_trace = False
            wrong_path = trace_index < 0
            if su.is_mem:
                mem_addr = (trace.mem_addr[trace_index] if not wrong_path
                            else synthetic_address(self.program, su.pc,
                                                   fetch.seq))
            else:
                mem_addr = 0
            du = DynUop(fetch.seq, su, trace_index, wrong_path, mem_addr,
                        restored=True)
            fetch.seq += 1
            if su.is_branch:
                branch_rec = self._restored_branch_record(
                    bu, du, buffer, trace_index)
                du.branch = branch_rec
                self.inflight.append(branch_rec)
                if not wrong_path:
                    cursor += 1
                    if branch_rec.mispredict:
                        on_trace = False
            elif not wrong_path:
                cursor += 1
            ready = self.now + offset + (index // fe.width)
            if bypass_alloc:
                ready = self.now
            self.restore_queue.append((ready, du))
            if restored_dus is not None:
                restored_dus.append(du)
        self._c_apf_restored_uops.value += len(buffer.uops)
        if obs is not None:
            obs.on_restore(self.now, rec, restored_dus)

        # frontend state fast-forwards to the end of the alternate path
        # (checkpoint restore, so maintained folds move with the registers)
        fetch.history.restore(buffer.end_hist)
        base = _materialize_ras(buffer.main_ras_snapshot,
                                buffer.shadow_ras_state)
        fetch.ras.restore(base)
        if buffer.dead_end:
            fetch.redirect_wrong_path(buffer.end_pc, self.now)
        elif on_trace:
            fetch.redirect_on_trace(cursor, self.now)
        else:
            fetch.redirect_wrong_path(buffer.end_pc, self.now)

    def _restored_branch_record(self, bu: BufferedUop, du: DynUop,
                                buffer: AlternatePathBuffer,
                                trace_index: int) -> InflightBranch:
        su = bu.static
        rec = InflightBranch(du.seq, su, su.kind, trace_index >= 0, self.now)
        rec.predicted_taken = bu.predicted_taken
        rec.predicted_target = bu.predicted_target
        ckpt = bu.hist_checkpoint
        rec.hist_checkpoint = ckpt
        if len(ckpt) == 4:
            rec.folds_at_predict = (ckpt[2], ckpt[3])
        rec.ghr_at_predict = bu.ghr_at_predict
        rec.path_at_predict = bu.path_at_predict
        rec.ras_checkpoint = _materialize_ras(buffer.main_ras_snapshot,
                                              bu.ras_state)
        rec.h2p_marked = bu.h2p_marked
        rec.low_conf = bu.low_conf
        if trace_index >= 0:
            trace = self.trace
            rec.recovery_cursor = trace_index + 1
            rec.actual_taken = trace.taken[trace_index]
            rec.actual_next_pc = trace.next_pc[trace_index]
            if su.is_cond_branch:
                rec.mispredict = bu.predicted_taken != rec.actual_taken
            elif su.kind in (BranchKind.RETURN, BranchKind.INDIRECT):
                rec.mispredict = bu.predicted_target != rec.actual_next_pc
        if self.apf is not None:
            if self.apf.is_dpip:
                # DPIP never saved RAT/free-list context for branches on the
                # alternate path, so it cannot start processing them even
                # after the path is promoted (Section IV, Fig. 3-vi)
                rec.dpip_eligible = False
            else:
                self.apf.note_new_branch(rec)
        return rec

    # ------------------------------------------------------------------
    # allocate
    # ------------------------------------------------------------------

    def _allocate(self) -> None:
        now = self.now
        sched = self.sched_heap
        if sched and sched[0] <= now:
            heappop = heapq.heappop
            while sched and sched[0] <= now:
                heappop(sched)
        budget = self._allocate_width
        rob = self.rob
        rob_entries = self._rob_entries
        sched_entries = self._sched_entries
        collect = self._collect
        allocate_uop = self._allocate_uop
        rq = self.restore_queue
        while budget and rq and rq[0][0] <= now:
            du = rq[0][1]
            if len(rob) >= rob_entries:
                if collect:
                    self._c_stall_rob.value += 1
                return
            if len(sched) >= sched_entries:
                if collect:
                    self._c_stall_sched.value += 1
                return
            op = du.static.op
            if op is Op.LOAD and self.load_count >= self._lq_entries:
                if collect:
                    self._c_stall_lq.value += 1
                return
            if op is Op.STORE and self.store_count >= self._sq_entries:
                if collect:
                    self._c_stall_sq.value += 1
                return
            rq.popleft()
            allocate_uop(du)
            budget -= 1
        ftq = self.ftq
        while budget and ftq:
            head = ftq[0]
            bundle = head[0]
            index = head[1]
            uops = bundle.uops
            if index >= len(uops):
                ftq.popleft()
                continue
            if bundle.ready_cycle > now:
                break
            du = uops[index]
            if bundle.batchable and not du.static.is_branch:
                # block-grain batch: a straight-line run starts here (any
                # suffix of a run is a run, so a bundle resumed mid-block
                # after a budget split re-enters through its own suffix
                # template). Allocates the run in one call iff the
                # backend provably has room for all of it; returns 0
                # otherwise and the per-uop path below handles partial
                # allocation and the stall counters exactly as the
                # reference does.
                template = self.block_cache.template(du.static.pc)
                if template is not None:
                    n = self._allocate_block(head, bundle, template, index,
                                             budget, now)
                    if n:
                        budget -= n
                        if head[1] >= len(uops):
                            ftq.popleft()
                        continue
            if len(rob) >= rob_entries:
                if collect:
                    self._c_stall_rob.value += 1
                return
            if len(sched) >= sched_entries:
                if collect:
                    self._c_stall_sched.value += 1
                return
            op = du.static.op
            if op is Op.LOAD and self.load_count >= self._lq_entries:
                if collect:
                    self._c_stall_lq.value += 1
                return
            if op is Op.STORE and self.store_count >= self._sq_entries:
                if collect:
                    self._c_stall_sq.value += 1
                return
            head[1] = index + 1
            if index + 1 >= len(uops):
                ftq.popleft()
            allocate_uop(du)
            budget -= 1

    def _allocate_block(self, head, bundle, template, index: int,
                        budget: int, now: int) -> int:
        """Batch-allocate the remainder of a branch-free fast-path bundle.

        Pre-checks that every structural limit holds for the whole batch
        (the checks are monotone within one allocation cycle: the ROB,
        scheduler, LQ and SQ only grow between retires, so room for N
        implies every per-uop check would have passed). On any shortfall
        it allocates nothing and returns 0 — the caller's per-uop path
        then reproduces the partial allocation and the exact stall
        counter of the reference loop. The loop body is the inlined
        :meth:`_allocate_uop` minus everything a branch-free on-template
        uop cannot need: no branch record, no RAT checkpoint, no event
        push, no per-uop FU-class/latency lookups (they come from the
        :class:`~repro.core.block_cache.BlockTemplate`).
        """
        uops = bundle.uops
        n = len(uops) - index         # the template starts at uops[index];
        tn = template.n               # branches (and younger uops) take
        if n > tn:                    # the per-uop path
            n = tn
        if n > budget:
            n = budget
        rob = self.rob
        if len(rob) + n > self._rob_entries:
            return 0
        sched = self.sched_heap
        if len(sched) + n > self._sched_entries:
            return 0
        lp = template.loads_prefix
        nloads = lp[n]
        if nloads and self.load_count + nloads > self._lq_entries:
            return 0
        sp = template.stores_prefix
        nstores = sp[n]
        if nstores and self.store_count + nstores > self._sq_entries:
            return 0
        if self._refill_cell is not None:
            self._refill_cell = None
        if self._collect:
            if uops[index].wrong_path:
                self._c_cpi_wrong_path.value += n
            else:
                self._c_cpi_base.value += n
        rename = self.rename
        rat = rename._rat
        ready_map = rename._ready
        ready_get = ready_map.get
        next_tag = rename._next_tag
        schedule = self.exec.schedule
        dload = self.hierarchy.dload
        dstore = self.hierarchy.dstore
        dtlb_access = self.dtlb.access
        agen = self._agen_latency
        heappush = heapq.heappush
        rob_append = rob.append
        obs = self._obs
        kinds = template.kind
        fus = template.fu
        lats = template.lat
        dests = template.dest
        s1a = template.src1_arch
        s1l = template.src1_local
        s2a = template.src2_arch
        s2l = template.src2_local
        # completion cycles of the uops allocated *in this call*, indexed
        # by template position: every in-block dependence link points at
        # a position in this same call (the template starts at this very
        # uop), so producers from an earlier call (a bundle split across
        # allocation cycles) always appear as arch sources and go through
        # the RAT like the reference
        done_local = self._done_scratch
        base_ready = now + 1
        for i in range(n):
            du = uops[index + i]
            ready = base_ready
            a = s1a[i]
            if a >= 0:
                p = s1l[i]
                r = done_local[p] if p >= 0 else ready_get(rat[a], 0)
                if r > ready:
                    ready = r
            a = s2a[i]
            if a >= 0:
                p = s2l[i]
                r = done_local[p] if p >= 0 else ready_get(rat[a], 0)
                if r > ready:
                    ready = r
            issue = schedule(fus[i], ready)
            kind = kinds[i]
            if kind == 0:
                done = issue + lats[i]
            elif kind == 1:
                agen_done = issue + agen
                addr = du.mem_addr
                done = agen_done + dload(addr, agen_done) \
                    + dtlb_access(addr)
                self.load_count += 1
            else:
                done = issue + agen
                dstore(du.mem_addr, done)
                self.store_count += 1
            d = dests[i]
            if d >= 0:
                rat[d] = next_tag
                ready_map[next_tag] = done
                next_tag += 1
            du.done_cycle = done
            done_local[i] = done
            rob_append(du)
            heappush(sched, issue)
            if obs is not None:
                # identical event stream to per-uop emission, including
                # the intermediate occupancy arguments
                obs.on_allocate(now, du, len(rob), len(sched))
        rename._next_tag = next_tag
        head[1] = index + n
        return n

    def _allocate_uop(self, du: DynUop) -> None:
        now = self.now
        # the slot is filled: attribute it, and close any refill window
        if self._refill_cell is not None:
            self._refill_cell = None
        if self._collect:
            if du.wrong_path:
                self._c_cpi_wrong_path.value += 1
            else:
                self._c_cpi_base.value += 1
        rename = self.rename
        source_ready = rename.source_ready
        su = du.static
        ready = now + 1
        src = su.src1
        if src >= 0:
            tag_ready = source_ready(src)
            if tag_ready > ready:
                ready = tag_ready
        src = su.src2
        if src >= 0:
            tag_ready = source_ready(src)
            if tag_ready > ready:
                ready = tag_ready
        rec = du.branch
        if rec is not None and not rec.allocated:
            rec.rat_checkpoint = rename.checkpoint()
            rec.allocated = True
        exec_model = self.exec
        op = su.op
        fu = exec_model.fu_class(op)
        issue = exec_model.schedule(fu, ready)
        if op is Op.LOAD:
            agen_done = issue + self._agen_latency
            latency = self.hierarchy.dload(du.mem_addr, agen_done)
            latency += self.dtlb.access(du.mem_addr)
            done = agen_done + latency
            self.load_count += 1
        elif op is Op.STORE:
            done = issue + self._agen_latency
            self.hierarchy.dstore(du.mem_addr, done)
            self.store_count += 1
        else:
            done = issue + exec_model.latency(fu)
        if su.dest >= 0:
            rename.set_ready(rename.allocate(su.dest), done)
        du.done_cycle = done
        self.rob.append(du)
        heapq.heappush(self.sched_heap, issue)
        if rec is not None and rec.on_trace and not rec.resolved \
                and rec.kind in _EVENT_KINDS:
            heapq.heappush(self.events, (done, rec.seq, rec))
        obs = self._obs
        if obs is not None:
            obs.on_allocate(now, du, len(self.rob), len(self.sched_heap))

    # ------------------------------------------------------------------
    # retire
    # ------------------------------------------------------------------

    def _retire(self) -> None:
        """Drain the contiguous ready ROB prefix in one batched pass.

        Counter deltas (retired count, load/store queue releases) are
        accumulated in locals and flushed once, mirroring
        ``_allocate_block``. The flush also happens *before*
        ``_cross_warmup`` when the warmup target lands mid-batch, so the
        warmup-boundary stats snapshot sees exactly the per-uop state
        the unbatched loop maintained.
        """
        rob = self.rob
        now = self.now
        if not rob or rob[0].done_cycle > now:
            return
        budget = self._retire_width
        warmup_target = self.warmup_target
        inflight = self.inflight
        obs = self._obs
        retired = self.retired
        ticks = 0
        loads = 0
        stores = 0
        while budget and rob and rob[0].done_cycle <= now:
            du = rob.popleft()
            budget -= 1
            retired += 1
            ticks += 1
            if obs is not None:
                obs.on_retire(now, du)
            op = du.static.op
            if op is Op.LOAD:
                loads += 1
            elif op is Op.STORE:
                stores += 1
            rec = du.branch
            if rec is not None:
                self._finalize_branch(rec)
                if inflight and inflight[0] is rec:
                    inflight.popleft()
                else:
                    # branches enter ``inflight`` in fetch order and the
                    # ROB retires in fetch order, so an out-of-deque-order
                    # retire should be impossible; count it rather than
                    # swallowing it silently
                    self._c_retire_out_of_order.value += 1
                    try:
                        inflight.remove(rec)
                    except ValueError:
                        pass
            if retired == warmup_target:
                # flush the batch so the stats snapshot taken by
                # _cross_warmup sees the exact warmup-boundary state
                self.retired = retired
                if loads:
                    self.load_count -= loads
                    self._c_retired_loads.value += loads
                    loads = 0
                if stores:
                    self.store_count -= stores
                    self._c_retired_stores.value += stores
                    stores = 0
                self._cross_warmup()
        self.retired = retired
        if loads:
            self.load_count -= loads
            self._c_retired_loads.value += loads
        if stores:
            self.store_count -= stores
            self._c_retired_stores.value += stores
        # the H2P decrement clock only matters to is_h2p queries, which
        # happen at fetch — strictly after retire within a cycle — so the
        # per-uop ticks batch into one call
        self.h2p_table.tick_instructions(ticks)

    def _finalize_branch(self, rec: InflightBranch) -> None:
        kind = rec.kind
        if kind is BranchKind.CONDITIONAL:
            self._c_cond_branches.value += 1
            su = rec.uop
            backward = 0 <= su.target < su.pc
            self.branch_unit.predictor.update(
                rec.pc, rec.ghr_at_predict, rec.actual_taken,
                rec.path_at_predict, backward=backward,
                folds=rec.folds_at_predict)
            mispredict = rec.mispredict
            if mispredict:
                self._c_cond_mispredicts.value += 1
            # Table II bookkeeping
            if rec.h2p_marked:
                self._c_h2p_marked.value += 1
                if mispredict:
                    self._c_h2p_marked_mis.value += 1
            if rec.low_conf:
                self._c_lowconf_marked.value += 1
                if mispredict:
                    self._c_lowconf_marked_mis.value += 1
        elif kind is BranchKind.INDIRECT:
            self._c_indirect_branches.value += 1
            self.branch_unit.indirect.update(
                rec.pc, rec.ghr_at_predict, rec.actual_next_pc)
            if rec.mispredict:
                self._c_indirect_mispredicts.value += 1
        elif kind is BranchKind.RETURN:
            self._c_returns.value += 1
            if rec.mispredict:
                self._c_return_mispredicts.value += 1

    # ------------------------------------------------------------------
    # fetch + APF orchestration
    # ------------------------------------------------------------------

    def _fetch_and_apf(self) -> None:
        apf = self.apf
        if apf is None:
            self._main_fetch()
            return
        if self._time_shared:
            apf_turn = (self.now % self._ts_period) >= self._ts_main
            # only give the cycle to the alternate path if it can actually
            # fetch: an active job, or a startable candidate on a free pipe
            can_use = (apf.active_job is not None
                       or (not apf.pipeline_busy()
                           and apf.select_candidate(self.inflight)
                           is not None))
            fetched = False
            if not (apf_turn and can_use):
                fetched = self._main_fetch()
            if (apf_turn or not fetched) and can_use:
                # opportunistic round-robin: the alternate path also takes
                # cycles the main path cannot use (stall / FTQ full)
                apf.cycle(self.now, self.inflight, self.fetch.history,
                          self.fetch.ras, can_fetch=True,
                          blocked_tage_banks=set(),
                          blocked_icache_banks=set())
                if self._collect:
                    self._c_timeshare_alt.value += 1
            return
        # banked / dual-port: both paths run every cycle
        fetched = self._main_fetch()
        if self._dual_port or not fetched:
            blocked_tage: set = set()
            blocked_icache: set = set()
        else:
            blocked_tage = self.fetch.cycle_tage_banks
            blocked_icache = self.fetch.cycle_icache_banks
        apf.cycle(self.now, self.inflight, self.fetch.history,
                  self.fetch.ras, can_fetch=True,
                  blocked_tage_banks=blocked_tage,
                  blocked_icache_banks=blocked_icache)

    def _main_fetch(self) -> bool:
        if len(self.ftq) >= self._ftq_entries:
            if self._collect:
                self._c_stall_ftq.value += 1
            return False
        bundle = self.fetch.step(self.now)
        if bundle is None:
            return False
        self.ftq.append([bundle, 0])
        obs = self._obs
        if obs is not None:
            obs.on_fetch(self.now, bundle, len(self.ftq))
        apf = self.apf
        inflight_append = self.inflight.append
        if apf is None:
            for rec in self.fetch.new_branches:
                inflight_append(rec)
        else:
            for rec in self.fetch.new_branches:
                inflight_append(rec)
                apf.note_new_branch(rec)
        return True
