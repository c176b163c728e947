"""Alternate Path Fetch engine (paper Sections III and V).

The engine owns the APF pipeline (one active job), the Alternate Path
Buffers, and H2P-branch scheduling. Each cycle it advances the active job:
fetching up to 8 uops along the *inverted* direction of the initiating H2P
branch using a shadow PC / shadow history / shadow RAS, predicting
alternate-path branches with the banked predictor subject to bank-conflict
arbitration (predicted path wins). After ``pipeline_depth`` cycles the job's
contents move to a free Alternate Path Buffer, and the pipeline picks the
next H2P branch — oldest-first with priority to TAGE-low-confidence
branches (Section V-D).

DPIP (Section IV) reuses this machinery with its restrictions: a deeper
alternate pipeline (15/17 stages, modelling Rename/Allocate of the
alternate path), no buffers (one outstanding path that must wait for its
branch to resolve), and a single pending-candidate context.
"""

from __future__ import annotations

from typing import List, Optional

from repro.branch.banking import icache_bank_bits
from repro.branch.history import SpeculativeHistory
from repro.branch.ras import ShadowRAS
from repro.common.config import AlternatePathMode, APFConfig
from repro.common.statistics import StatGroup
from repro.isa.opcodes import BranchKind, Op
from repro.workloads.program import Program

from repro.core.fetch_engine import BranchUnit
from repro.core.uops import BufferedUop, InflightBranch

__all__ = ["APFEngine", "APFJob", "AlternatePathBuffer"]

# Enum members bound once as module names: on Python 3.11 and older
# EnumType defines ``__getattr__``, which sends every ``Op.X`` and
# ``BranchKind.X`` read through a slow lookup hook, so the per-uop paths
# compare against these (docs/ARCHITECTURE.md §8.4)
_HALT = Op.HALT
_CONDITIONAL = BranchKind.CONDITIONAL
_DIRECT_JUMP = BranchKind.DIRECT_JUMP
_CALL = BranchKind.CALL
_RETURN = BranchKind.RETURN


class APFJob:
    """One alternate path being fetched by the APF pipeline."""

    __slots__ = ("branch", "pc", "history", "shadow_ras", "uops",
                 "fetch_cycles", "total_cycles", "terminated", "complete",
                 "shadow_branches", "dead")

    def __init__(self, branch: InflightBranch, start_pc: int,
                 history: SpeculativeHistory, shadow_ras: ShadowRAS) -> None:
        self.branch = branch
        self.pc = start_pc
        self.history = history
        self.shadow_ras = shadow_ras
        self.uops: List[BufferedUop] = []
        self.fetch_cycles = 0     # cycles that actually fetched uops
        self.total_cycles = 0     # cycles occupied (including stalls)
        self.terminated = False   # stopped early (icache miss / indirect)
        self.complete = False
        self.shadow_branches = 0  # entries used in the shadow branch queue
        self.dead = False         # ran off the image


class AlternatePathBuffer:
    """Saved state of one fully (or partially) fetched alternate path."""

    __slots__ = ("branch", "uops", "end_pc", "end_ghr", "end_path",
                 "end_hist", "shadow_ras_state", "main_ras_snapshot",
                 "fetch_cycles", "dead_end")

    def __init__(self, job: APFJob) -> None:
        self.branch = job.branch
        self.uops = job.uops
        self.end_pc = job.pc
        self.end_ghr = job.history.ghr
        self.end_path = job.history.path
        # full checkpoint (registers + maintained folds): the core restores
        # the main history from this, not from the raw registers, so the
        # fold state fast-forwards along with ghr/path
        self.end_hist = job.history.checkpoint()
        self.shadow_ras_state = job.shadow_ras.state()
        self.main_ras_snapshot = job.shadow_ras.main_snapshot
        self.fetch_cycles = job.fetch_cycles
        self.dead_end = job.dead


class APFEngine:
    def __init__(self, config: APFConfig, branch_unit: BranchUnit,
                 program: Program, hierarchy, frontend_config,
                 stats: StatGroup) -> None:
        self.config = config
        self.bu = branch_unit
        self.program = program
        self.hierarchy = hierarchy
        self.fe = frontend_config
        self.stats = stats
        self.active_job: Optional[APFJob] = None
        self.held_job: Optional[APFJob] = None   # complete, no buffer free
        self.buffers: List[Optional[AlternatePathBuffer]] = \
            [None] * config.num_buffers
        self.dpip_pending: Optional[InflightBranch] = None
        #: DPIP (Section IV) rather than APF: fixed by the config, read on
        #: every new branch and every APF cycle
        self.is_dpip = config.mode == AlternatePathMode.DPIP
        # hot-path aliases and stat cells
        self._fe_width = frontend_config.width
        self._pipeline_depth = config.pipeline_depth
        self._buffer_cap = config.buffer_capacity_uops
        # block-grain shadow fetch: straight-line run lengths over the
        # static image let _fetch_cycle append whole half-line chunks of
        # non-branch uops without per-uop PC decode
        self._prog_uops = program.uops()
        self._prog_runs = program.nonbranch_runs()
        self._code_base = program.code_base
        self._n_uops = len(program)
        self._shadow_queue_entries = config.shadow_branch_queue_entries
        # straight-line shadow uops carry only their StaticUop (all
        # prediction fields default) and are never mutated once buffered,
        # so every job shares one interned prototype per static uop
        self._protos = [BufferedUop(su) for su in self._prog_uops]
        # one shadow history re-seeded in place across consecutive jobs:
        # start_job only fires while no other job is live, and finished
        # jobs survive only as checkpoint tuples, so the fold state can
        # be reused instead of re-allocated per job
        self._shadow_hist: Optional[SpeculativeHistory] = None
        self.collect = True            # core toggles this across warmup
        self.obs = None                # observability sink (core attaches)
        self._c_jobs_started = stats.counter("apf_jobs_started")
        self._c_active_cycles = stats.counter("apf_active_cycles")
        self._c_jobs_completed = stats.counter("apf_jobs_completed")
        self._c_bank_conflicts = stats.counter("apf_bank_conflict_cycles")
        self._c_icache_terms = stats.counter("apf_icache_terminations")
        self._c_icache_prefetches = stats.counter("apf_icache_prefetches")
        self._c_fetched_uops = stats.counter("apf_fetched_uops")
        self._c_ras_terms = stats.counter("apf_ras_terminations")
        self._c_indirect_terms = stats.counter("apf_indirect_terminations")
        # capture provenance: a fully buffered path collapses the whole
        # re-fill, a live (still-fetching) capture only part of it — the
        # split explains partial savings in the APF coverage report
        self._c_captured_buffered = stats.counter("apf_captured_buffered")
        self._c_captured_live = stats.counter("apf_captured_live")

    # -- bookkeeping ---------------------------------------------------------

    def pipeline_busy(self) -> bool:
        return self.active_job is not None or self.held_job is not None

    def free_buffer_index(self) -> int:
        for index, slot in enumerate(self.buffers):
            if slot is None:
                return index
        return -1

    def note_new_branch(self, rec: InflightBranch) -> None:
        """DPIP can pend at most one candidate while its pipeline is busy."""
        if not self.is_dpip:
            return
        if not (rec.low_conf or rec.h2p_marked):
            return
        if self.pipeline_busy():
            if self.dpip_pending is None or self.dpip_pending.resolved \
                    or self.dpip_pending.squashed:
                self.dpip_pending = rec
            else:
                rec.dpip_eligible = False

    def clear(self) -> None:
        """Drop all alternate-path state (pipeline quiesce)."""
        self.active_job = None
        self.held_job = None
        self.buffers = [None] * self.config.num_buffers
        self.dpip_pending = None

    def release_branch(self, rec: InflightBranch) -> None:
        """Free APF state owned by a resolved-correct or squashed branch."""
        if rec.apf_buffer is not None:
            for index, slot in enumerate(self.buffers):
                if slot is rec.apf_buffer:
                    self.buffers[index] = None
            rec.apf_buffer = None
        if self.active_job is not None and self.active_job.branch is rec:
            self.active_job = None
        if self.held_job is not None and self.held_job.branch is rec:
            self.held_job = None
        if self.dpip_pending is rec:
            self.dpip_pending = None

    def capture(self, rec: InflightBranch) -> Optional[AlternatePathBuffer]:
        """Return the alternate-path contents for a mispredicted branch,
        whether still in the pipeline or already buffered, and release the
        resources."""
        if rec.apf_buffer is not None:
            buffer = rec.apf_buffer
            if self.collect and buffer.uops:
                self._c_captured_buffered.value += 1
            self.release_branch(rec)
            return buffer
        job = None
        if self.active_job is not None and self.active_job.branch is rec:
            job = self.active_job
        elif self.held_job is not None and self.held_job.branch is rec:
            job = self.held_job
        if job is None:
            return None
        buffer = AlternatePathBuffer(job)
        if self.collect and buffer.uops:
            self._c_captured_live.value += 1
        self.release_branch(rec)
        return buffer

    # -- scheduling (Section V-D) ---------------------------------------------

    def select_candidate(self, inflight: List[InflightBranch]) \
            -> Optional[InflightBranch]:
        """Oldest unresolved H2P branch; TAGE-low-confidence first."""
        oldest_low: Optional[InflightBranch] = None
        oldest_h2p: Optional[InflightBranch] = None
        for rec in inflight:
            if (rec.resolved or rec.squashed or not rec.is_conditional
                    or rec.has_alternate_path() or not rec.dpip_eligible):
                continue
            if self.config.use_tage_confidence and rec.low_conf \
                    and oldest_low is None:
                oldest_low = rec
                break  # inflight is oldest-first; low-conf always wins
            if self.config.use_h2p_table and rec.h2p_marked \
                    and oldest_h2p is None:
                oldest_h2p = rec
                if not self.config.use_tage_confidence:
                    break
        return oldest_low if oldest_low is not None else oldest_h2p

    def start_job(self, rec: InflightBranch,
                  main_history: SpeculativeHistory, main_ras,
                  now: int = 0) -> None:
        """Initialise the APF pipeline for ``rec``'s alternate path."""
        su = rec.uop
        alt_taken = not rec.predicted_taken
        start_pc = su.target if alt_taken else su.fallthrough
        busy = self.active_job is not None or self.held_job is not None
        history = self._shadow_hist if not busy else None
        if history is None:
            history = SpeculativeHistory(main_history.max_length,
                                         main_history.path_length)
            if not busy:
                self._shadow_hist = history
        history.adopt_folds(main_history)
        # the shadow history is the history *at the branch* plus the
        # inverted prediction (Section V-E)
        history.restore(rec.hist_checkpoint)
        history.push(alt_taken, su.pc)
        shadow_ras = ShadowRAS(main_ras, self.config.shadow_ras_entries)
        shadow_ras.main_snapshot = rec.ras_checkpoint
        job = APFJob(rec, start_pc, history, shadow_ras)
        job.dead = self.program.uop_at(start_pc) is None
        rec.apf_job = job
        self.active_job = job
        if self.dpip_pending is rec:
            self.dpip_pending = None
        if self.collect:
            self._c_jobs_started.value += 1
        if self.obs is not None:
            self.obs.on_apf_job_start(now, rec)

    # -- per-cycle operation ----------------------------------------------------

    def next_wakeup(self, now: int,
                    inflight: List[InflightBranch]) -> Optional[int]:
        """Earliest future cycle at which :meth:`cycle` would do real work.

        ``now + 1`` while a job is active, a completed job can drain into
        a free buffer, or a startable candidate is waiting; ``None`` when
        the engine is provably idle until some *other* event (a branch
        resolution releasing a buffer, or fetch producing a new H2P
        candidate) changes its inputs — the core re-evaluates after every
        non-skipped cycle, so those transitions are never missed.
        """
        if self.active_job is not None:
            return now + 1
        if self.held_job is not None:
            if not self.is_dpip and self.free_buffer_index() >= 0:
                return now + 1
            return None   # parked until a resolve/retire frees a buffer
        if self.select_candidate(inflight) is not None:
            return now + 1
        return None

    def cycle(self, now: int, inflight: List[InflightBranch],
              main_history: SpeculativeHistory, main_ras,
              can_fetch: bool, blocked_tage_banks: set,
              blocked_icache_banks: set) -> None:
        """Advance the APF pipeline by one cycle.

        ``can_fetch`` is False when the fetch scheme gives this cycle to the
        main path only (time-sharing) — the pipeline still ages.
        """
        self._try_drain_held(now)
        if self.active_job is None and self.held_job is None:
            candidate = self.select_candidate(inflight)
            if candidate is not None:
                self.start_job(candidate, main_history, main_ras, now)
        job = self.active_job
        if job is None:
            return
        if self.collect:
            self._c_active_cycles.value += 1
        job.total_cycles += 1
        if can_fetch and not job.terminated and not job.dead \
                and job.total_cycles <= self._pipeline_depth:
            self._fetch_cycle(job, now, blocked_tage_banks,
                              blocked_icache_banks)
        if (job.total_cycles >= self._pipeline_depth
                or len(job.uops) >= self._buffer_cap
                or job.terminated or job.dead):
            self._complete_job(job, now)

    def _buffer_occupancy(self) -> int:
        return sum(1 for slot in self.buffers if slot is not None)

    def _try_drain_held(self, now: int = 0) -> None:
        if self.held_job is None or self.is_dpip:
            return
        index = self.free_buffer_index()
        if index < 0:
            return
        job = self.held_job
        self.held_job = None
        buffer = AlternatePathBuffer(job)
        self.buffers[index] = buffer
        job.branch.apf_job = None
        job.branch.apf_buffer = buffer
        if self.obs is not None:
            self.obs.on_apf_buffer_fill(now, self._buffer_occupancy())

    def _complete_job(self, job: APFJob, now: int = 0) -> None:
        job.complete = True
        self.active_job = None
        if self.collect:
            self._c_jobs_completed.value += 1
        obs = self.obs
        if obs is not None:
            obs.on_apf_job_complete(now, job)
        if self.is_dpip:
            # DPIP holds its single path until the branch resolves
            self.held_job = job
            return
        index = self.free_buffer_index()
        if index >= 0:
            buffer = AlternatePathBuffer(job)
            self.buffers[index] = buffer
            job.branch.apf_job = None
            job.branch.apf_buffer = buffer
            if obs is not None:
                obs.on_apf_buffer_fill(now, self._buffer_occupancy())
        else:
            self.held_job = job   # pipeline stays occupied (Section III)

    # -- alternate-path fetch -----------------------------------------------------

    def _fetch_cycle(self, job: APFJob, now: int,
                     blocked_tage_banks: set,
                     blocked_icache_banks: set) -> None:
        """One shadow-fetch cycle, block-grain: non-branch uops are
        appended a straight-line chunk at a time (bounded by the fetch
        width, the buffer cap, and the 32B half-line the bank/probe
        checks are keyed on), with the per-uop path kept for branches.
        The uop-by-uop reference behaviour is preserved exactly — every
        chunk stays inside one half-line, so the bank-conflict and
        I-cache probe sequence is identical."""
        fetched = 0
        self._bank_checked = False   # one predictor access per cycle
        current_half_line = -1       # 32B chunks are separate bank accesses
        job_uops = job.uops
        buffer_cap = self._buffer_cap
        width = self._fe_width
        uops = self._prog_uops
        runs = self._prog_runs
        protos = self._protos
        code_base = self._code_base
        n_uops = self._n_uops
        collect = self.collect
        while fetched < width:
            pc = job.pc
            offset = pc - code_base
            index = offset >> 2
            if offset < 0 or offset & 3 or index >= n_uops:
                job.dead = True
                break
            su = uops[index]
            if su.op is _HALT:
                job.dead = True
                break
            half_line = pc >> 5
            if half_line != current_half_line:
                bank = icache_bank_bits(pc)
                if bank in blocked_icache_banks:
                    if not fetched and collect:
                        self._c_bank_conflicts.value += 1
                    break   # this chunk retries next cycle
                # APF terminates on an I-cache miss; by default the miss is
                # not sent to memory (Section III-A). The optional extension
                # issues it as a prefetch (wrong-path instruction
                # prefetching layered on APF).
                if not self.hierarchy.icache.probe(pc):
                    job.terminated = True
                    if collect:
                        self._c_icache_terms.value += 1
                    if self.config.prefetch_alternate_icache:
                        self.hierarchy.ifetch(pc, now)
                        if collect:
                            self._c_icache_prefetches.value += 1
                    break
                current_half_line = half_line
            run = runs[index]
            if run == 0:
                # a branch (HALT was handled above)
                advanced = self._shadow_branch(job, su, blocked_tage_banks,
                                               stalled=not fetched)
                if not advanced:
                    break          # bank conflict: branch retries next cycle
                if job.terminated:
                    break          # indirect / RAS underflow stops the path
                fetched += 1
                if self._shadow_taken:
                    break
                if len(job_uops) >= buffer_cap:
                    break
                continue
            n = width - fetched
            if run < n:
                n = run
            room = buffer_cap - len(job_uops)
            if room < n:
                n = room
            chunk = 8 - ((pc >> 2) & 7)   # uops left in this 32B half-line
            if chunk < n:
                n = chunk
            job_uops.extend(protos[index:index + n])
            fetched += n
            job.pc = pc + (n << 2)
            if len(job_uops) >= buffer_cap:
                break
        if fetched:
            job.fetch_cycles += 1
            if collect:
                self._c_fetched_uops.value += fetched

    def _shadow_branch(self, job: APFJob, su,
                       blocked_tage_banks: set, stalled: bool = True) -> bool:
        """Process one branch on the alternate path. Returns False when a
        predictor bank conflict stalls the APF pipeline this cycle."""
        self._shadow_taken = False
        kind = su.kind
        if kind is _CONDITIONAL:
            if not self._bank_checked:
                # the alternate path's single predictor access this cycle
                if self.bu.bank_of(su.pc) in blocked_tage_banks:
                    if stalled and self.collect:
                        self._c_bank_conflicts.value += 1
                    return False
                self._bank_checked = True
            history = job.history
            pred = self.bu.predictor.predict(
                su.pc, history.ghr, history.path, history.folds)
            h2p = False
            low = False
            if job.shadow_branches < self._shadow_queue_entries:
                h2p = self.bu.h2p_table.is_h2p(su.pc)
                low = pred.low_confidence
                job.shadow_branches += 1
            bu = BufferedUop(
                su, predicted_taken=pred.taken,
                predicted_target=su.target if pred.taken else su.fallthrough,
                hist_checkpoint=history.checkpoint(),
                ghr_at_predict=history.ghr,
                path_at_predict=history.path,
                ras_state=job.shadow_ras.state(),
                h2p_marked=h2p, low_conf=low)
            job.uops.append(bu)
            history.push(pred.taken, su.pc)
            job.pc = bu.predicted_target
            self._shadow_taken = pred.taken
            return True
        if kind is _DIRECT_JUMP or kind is _CALL:
            if kind is _CALL:
                job.shadow_ras.push(su.fallthrough)
            job.uops.append(BufferedUop(
                su, predicted_taken=True, predicted_target=su.target,
                hist_checkpoint=job.history.checkpoint(),
                ghr_at_predict=job.history.ghr,
                path_at_predict=job.history.path,
                ras_state=job.shadow_ras.state()))
            job.pc = su.target
            self._shadow_taken = True
            return True
        if kind is _RETURN:
            target = job.shadow_ras.pop()
            if target is None:
                job.terminated = True
                if self.collect:
                    self._c_ras_terms.value += 1
                return True
            job.uops.append(BufferedUop(
                su, predicted_taken=True, predicted_target=target,
                hist_checkpoint=job.history.checkpoint(),
                ghr_at_predict=job.history.ghr,
                path_at_predict=job.history.path,
                ras_state=job.shadow_ras.state()))
            job.pc = target
            self._shadow_taken = True
            return True
        # indirect: APF stops (the indirect predictor is not banked)
        job.terminated = True
        if self.collect:
            self._c_indirect_terms.value += 1
        return True
