"""Decoupled frontend: branch unit + main-path fetch engine.

The fetch engine walks the *dynamic trace* while predictions agree with
architectural outcomes, and walks the *static image* once a misprediction
puts fetch on the wrong path — exactly the behaviour of an execution-driven
simulator with wrong-path execution (Scarab), realised over a precomputed
trace. Every control-flow uop gets an :class:`InflightBranch` record with
the checkpoints needed for exact recovery.

Produced bundles carry a ``ready_cycle``: the cycle their uops reach the
rename stage, i.e. fetch cycle + frontend depth (+ I-cache miss stalls).
The misprediction re-fill penalty the paper attacks emerges from this
latency pipe rather than being charged as a magic constant.
"""

from __future__ import annotations

from itertools import repeat
from typing import List, Optional

from repro.branch.banking import fetch_banks_touched
from repro.branch.history import SpeculativeHistory
from repro.branch.ras import ReturnAddressStack
from repro.common.config import CoreConfig
from repro.common.statistics import StatGroup
from repro.isa.opcodes import UOP_BYTES, BranchKind, Op
from repro.workloads.program import Program
from repro.workloads.trace import DynamicTrace

from repro.core.uops import DynUop, InflightBranch

__all__ = ["Bundle", "BranchUnit", "MainFetchEngine", "STALL_BTB",
           "STALL_ICACHE", "STALL_REDIRECT", "synthetic_address"]

_MASK64 = (1 << 64) - 1
_FALSE_REPEAT = repeat(False)

# Enum members bound once as module names: on Python 3.11 and older
# EnumType defines ``__getattr__``, which sends every ``Op.X`` and
# ``BranchKind.X`` read through a slow lookup hook, so the per-uop paths
# compare against these (docs/ARCHITECTURE.md §8.4)
_HALT = Op.HALT
_CONDITIONAL = BranchKind.CONDITIONAL
_DIRECT_JUMP = BranchKind.DIRECT_JUMP
_CALL = BranchKind.CALL
_RETURN = BranchKind.RETURN

# Why fetch is parked until ``stall_until`` — the core's CPI-stack
# accounting maps these to frontend leaves. Updated whenever a stall
# source *extends* the window, so the cause always names the binding
# constraint.
STALL_REDIRECT = 0
STALL_BTB = 1
STALL_ICACHE = 2


def synthetic_address(program: Program, pc: int, seq: int) -> int:
    """Deterministic wrong-path load/store address inside the data segment."""
    span = max(8, program.data_end - program.data_base)
    z = ((pc * 0x9E3779B97F4A7C15) ^ (seq * 0xBF58476D1CE4E5B9)) & _MASK64
    return program.data_base + ((z % span) & ~7)


def trace_nonbranch_runs(trace: DynamicTrace) -> List[int]:
    """``run[i]`` = number of consecutive non-branch trace entries
    starting at index ``i`` (``run[len(trace)] == 0`` sentinel included).
    On-trace fetch never sees HALT (the emulator stops before retiring
    it), so only branches end a run."""
    uops = trace.uops
    n = len(uops)
    run = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        if not uops[i].is_branch:
            run[i] = run[i + 1] + 1
    return run


class Bundle:
    """One fetch packet: up to ``width`` uops fetched in a single cycle."""

    __slots__ = ("uops", "fetch_cycle", "ready_cycle", "start_pc",
                 "icache_extra")

    def __init__(self, uops: List[DynUop], fetch_cycle: int,
                 ready_cycle: int, start_pc: int,
                 icache_extra: int = 0) -> None:
        self.uops = uops
        self.fetch_cycle = fetch_cycle
        self.ready_cycle = ready_cycle
        self.start_pc = start_pc
        # icache-miss cycles folded into ready_cycle; the CPI accounting
        # splits the in-flight wait into pipe traversal vs icache tail
        self.icache_extra = icache_extra


class BranchUnit:
    """Shared prediction structures: direction predictor, BTB, indirect,
    H2P table. The direction predictor may be banked (BankedTage)."""

    def __init__(self, predictor, btb, indirect, h2p_table) -> None:
        self.predictor = predictor
        self.btb = btb
        self.indirect = indirect
        self.h2p_table = h2p_table
        # resolved once: bank_of sits on the fetch and APF hot paths
        self._bank_fn = getattr(predictor, "bank_of", None)

    def bank_of(self, pc: int) -> int:
        bank_fn = self._bank_fn
        return bank_fn(pc) if bank_fn else 0

    @property
    def num_banks(self) -> int:
        return getattr(self.predictor, "num_banks", 1)


class MainFetchEngine:
    """Predicted-path fetch state machine."""

    def __init__(self, program: Program, trace: DynamicTrace,
                 branch_unit: BranchUnit, hierarchy, config: CoreConfig,
                 stats: StatGroup) -> None:
        self.program = program
        self.trace = trace
        self.bu = branch_unit
        self.hierarchy = hierarchy
        self.config = config
        self.fe = config.frontend
        self.stats = stats
        self.history = SpeculativeHistory(config.tage.max_history)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.cursor = 0                # next trace index (on-trace mode)
        self.wrong_path = False
        self.pc = trace.uops[0].pc if len(trace) else program.entry_pc
        self.dead = False              # off-image wrong path / end of trace
        self.stall_until = 0
        self.stall_cause = STALL_REDIRECT
        self.seq = 0
        self.misfetch_penalty = (self.fe.bp_stages + self.fe.fetch_stages
                                 + self.fe.decode_stages)
        # per-cycle bank usage published for APF conflict checks
        self.cycle_tage_banks: set = set()
        self.cycle_icache_banks: set = set()
        # branch records created this cycle (core collects them)
        self.new_branches: List[InflightBranch] = []
        # hot-path aliases: trace columns, frontend scalars, stat cells
        self._trace_uops = trace.uops
        self._trace_taken = trace.taken
        self._trace_next_pc = trace.next_pc
        self._trace_mem_addr = trace.mem_addr
        self._trace_len = len(trace)
        self._width = self.fe.width
        self._depth = self.fe.depth
        self._uop_bytes = self.fe.uop_bytes
        self._icache_hit_latency = hierarchy.icache.config.hit_latency
        # stable bound-method aliases: the branch unit's structures are
        # constructed once per core and restore() mutates them in place,
        # so these never go stale (per-branch attribute-chain walks are
        # measurable in the fetch hot loop)
        self._predict = branch_unit.predictor.predict
        self._is_h2p = branch_unit.h2p_table.is_h2p
        # block-grain fast path: precomputed straight-line run lengths
        # over the trace (on-trace fetch) and the static image (wrong-path
        # fetch). A full-width branch-free run builds the bundle in one
        # tight loop with no per-uop control-flow checks; anything shorter
        # falls back to the per-uop reference path.
        self.use_block_fast_path = True
        self._trace_run = trace_nonbranch_runs(trace)
        self._static_run = program.nonbranch_runs()
        self._prog_uops = program.uops()
        self._code_base = program.code_base
        self._n_static = len(program)
        #: whether the per-cycle bank sets are maintained: only the APF
        #: BANKED scheme reads them, every other configuration skips the
        #: set bookkeeping entirely (the core flips this at construction)
        self.publish_banks = True
        self.collect = True            # core toggles this across warmup
        self.obs = None                # observability sink (core attaches)
        self._c_fetch_cycles = stats.counter("fetch_cycles")
        self._c_fetched_uops = stats.counter("fetched_uops")
        self._c_icache_stall = stats.counter("icache_miss_stall_cycles")
        self._c_btb_misfetches = stats.counter("btb_misfetches")
        self._c_dir_mispredicts = stats.counter("fetch_direction_mispredicts")
        self._c_tgt_mispredicts = stats.counter("fetch_target_mispredicts")

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Capture fetch state. Only meaningful at a quiescent point
        (pipeline empty, on-trace fetch) — ``new_branches`` and the
        per-cycle bank sets are transient and not captured."""
        return {
            "history": self.history.checkpoint(),
            "ras": self.ras.checkpoint(),
            "cursor": self.cursor,
            "wrong_path": self.wrong_path,
            "pc": self.pc,
            "dead": self.dead,
            "stall_until": self.stall_until,
            "stall_cause": self.stall_cause,
            "seq": self.seq,
        }

    def restore(self, state: dict) -> None:
        self.history.restore(state["history"])
        self.ras.restore(state["ras"])
        self.cursor = state["cursor"]
        self.wrong_path = state["wrong_path"]
        self.pc = state["pc"]
        self.dead = state["dead"]
        self.stall_until = state["stall_until"]
        self.stall_cause = state["stall_cause"]
        self.seq = state["seq"]
        self.cycle_tage_banks = set()
        self.cycle_icache_banks = set()
        self.new_branches = []

    # -- redirect ----------------------------------------------------------

    def redirect_on_trace(self, cursor: int, now: int) -> None:
        self.cursor = cursor
        self.wrong_path = False
        self.dead = cursor >= len(self.trace)
        self.stall_until = now + 1
        self.stall_cause = STALL_REDIRECT

    def redirect_wrong_path(self, pc: int, now: int) -> None:
        self.pc = pc
        self.wrong_path = True
        self.dead = self.program.uop_at(pc) is None
        self.stall_until = now + 1
        self.stall_cause = STALL_REDIRECT

    # -- fetch -------------------------------------------------------------

    def current_fetch_pc(self) -> Optional[int]:
        if self.dead:
            return None
        if self.wrong_path:
            return self.pc
        if self.cursor >= len(self.trace):
            return None
        return self.trace.uops[self.cursor].pc

    def can_fetch(self, now: int) -> bool:
        return not self.dead and now >= self.stall_until \
            and self.current_fetch_pc() is not None

    def next_wakeup(self, now: int) -> Optional[int]:
        """Earliest future cycle at which fetch could produce a bundle.

        Returns ``None`` when fetch is permanently idle (dead path or
        trace exhausted); otherwise the end of the current stall window,
        or ``now + 1`` when fetch is already unstalled (it can fetch every
        cycle). The FTQ-full case is the *core's* condition, not ours —
        the core accounts for it when computing the skip.
        """
        if self.dead or self.current_fetch_pc() is None:
            return None
        return self.stall_until if self.stall_until > now else now + 1

    def step(self, now: int) -> Optional[Bundle]:
        """Fetch one bundle; publishes bank usage for this cycle.

        Every straight-line (branch-free) run inside the fetch group —
        known in O(1) from the precomputed run arrays — is built in a
        tight loop with no per-uop predict/branch checks: the leading
        run, and equally the runs that follow each not-taken branch.
        Branches themselves (and trace end, HALT, image edges) take the
        per-uop reference path; the produced bundles are identical
        either way.
        """
        if self.publish_banks:
            self.cycle_tage_banks.clear()
            self.cycle_icache_banks.clear()
        self.new_branches.clear()
        if self.dead or now < self.stall_until:
            return None
        if self.wrong_path:
            start_pc = self.pc
        elif self.cursor < self._trace_len:
            start_pc = self._trace_uops[self.cursor].pc
        else:
            return None
        width = self._width
        uops: List[DynUop] = []
        append = uops.append
        remaining = width
        use_fp = self.use_block_fast_path
        fetch_one = self._fetch_one
        while remaining:
            if use_fp:
                if self.wrong_path:
                    offset = self.pc - self._code_base
                    if offset >= 0 and not offset % UOP_BYTES:
                        index = offset // UOP_BYTES
                        run = (self._static_run[index]
                               if index < self._n_static else 0)
                        if run:
                            if run > remaining:
                                run = remaining
                            sus = self._prog_uops
                            program = self.program
                            seq = self.seq
                            for i in range(index, index + run):
                                su = sus[i]
                                mem = (synthetic_address(program, su.pc,
                                                         seq)
                                       if su.is_mem else 0)
                                append(DynUop(seq, su, -1, True, mem))
                                seq += 1
                            self.seq = seq
                            self.pc += run * UOP_BYTES
                            remaining -= run
                            continue
                elif self.cursor < self._trace_len:
                    cursor = self.cursor
                    run = self._trace_run[cursor]
                    if run:
                        if run > remaining:
                            run = remaining
                        seq = self.seq
                        end = cursor + run
                        # C-driven construction loop (map) — identical
                        # DynUop stream to the per-uop append loop
                        uops.extend(map(DynUop, range(seq, seq + run),
                                        self._trace_uops[cursor:end],
                                        range(cursor, end), _FALSE_REPEAT,
                                        self._trace_mem_addr[cursor:end]))
                        self.seq = seq + run
                        self.cursor = end
                        remaining -= run
                        continue
            du = fetch_one(now)
            if du is None:
                break
            append(du)
            remaining -= 1
            if du.static.is_branch and self._bundle_ended:
                break
        if not uops:
            return None
        if self.collect:
            self._c_fetch_cycles.value += 1
            self._c_fetched_uops.value += len(uops)
        ready = now + self._depth
        if self.publish_banks:
            self.cycle_icache_banks.update(
                fetch_banks_touched(start_pc, len(uops) * self._uop_bytes))
        latency = self.hierarchy.ifetch(start_pc, now)
        extra = latency - self._icache_hit_latency
        if extra > 0:
            if self.collect:
                self._c_icache_stall.value += extra
            if self.obs is not None:
                self.obs.on_icache_stall(now, extra)
            ready += extra
            if now + 1 + extra > self.stall_until:
                self.stall_until = now + 1 + extra
                self.stall_cause = STALL_ICACHE
            return Bundle(uops, now, ready, start_pc, extra)
        return Bundle(uops, now, ready, start_pc)

    def _fetch_one(self, now: int) -> Optional[DynUop]:
        self._bundle_ended = False
        wrong_path = self.wrong_path
        if wrong_path:
            su = self.program.uop_at(self.pc)
            if su is None or su.op is _HALT:
                self.dead = True
                return None
            trace_index = -1
            mem_addr = (synthetic_address(self.program, su.pc, self.seq)
                        if su.is_mem else 0)
        else:
            cursor = self.cursor
            if cursor >= self._trace_len:
                self.dead = True
                return None
            su = self._trace_uops[cursor]
            trace_index = cursor
            mem_addr = self._trace_mem_addr[cursor]
        du = DynUop(self.seq, su, trace_index, wrong_path, mem_addr)
        self.seq += 1
        if su.is_branch:
            self._handle_branch(du, now)
        elif wrong_path:
            self.pc = su.fallthrough
        else:
            self.cursor = trace_index + 1
        return du

    # -- branch handling -----------------------------------------------------

    def _make_record(self, du: DynUop, now: int) -> InflightBranch:
        su = du.static
        history = self.history
        rec = InflightBranch(du.seq, su, su.kind, not self.wrong_path, now)
        ckpt = history.checkpoint()
        rec.hist_checkpoint = ckpt
        if len(ckpt) == 4:
            rec.folds_at_predict = (ckpt[2], ckpt[3])
        rec.ras_checkpoint = self.ras.checkpoint()
        rec.ghr_at_predict = history.ghr
        rec.path_at_predict = history.path
        if not self.wrong_path:
            cursor = self.cursor
            rec.recovery_cursor = cursor + 1
            rec.actual_taken = self._trace_taken[cursor]
            rec.actual_next_pc = self._trace_next_pc[cursor]
        du.branch = rec
        self.new_branches.append(rec)
        return rec

    def _check_btb(self, su, now: int) -> None:
        """Model the misfetch stall for taken branches absent from the BTB."""
        hit = self.bu.btb.lookup(su.pc)
        if hit is None:
            if self.collect:
                self._c_btb_misfetches.value += 1
            if self.obs is not None:
                self.obs.on_btb_misfetch(now, su.pc)
            until = now + 1 + self.misfetch_penalty
            if until > self.stall_until:
                self.stall_until = until
                self.stall_cause = STALL_BTB
            target = su.target if su.target >= 0 else su.fallthrough
            self.bu.btb.insert(su.pc, su.kind, target)

    def _handle_branch(self, du: DynUop, now: int) -> None:
        su = du.static
        kind = su.kind
        rec = self._make_record(du, now)

        if kind is _CONDITIONAL:
            history = self.history
            pred = self._predict(su.pc, history.ghr, history.path,
                                 history.folds)
            # one predictor access per path per cycle: the bank occupied by
            # this cycle's prediction is that of the first branch looked up
            if self.publish_banks and not self.cycle_tage_banks:
                self.cycle_tage_banks.add(self.bu.bank_of(su.pc))
            rec.predicted_taken = pred.taken
            rec.low_conf = pred.low_confidence
            rec.h2p_marked = self._is_h2p(su.pc)
            rec.predicted_target = su.target if pred.taken else su.fallthrough
            history.push(pred.taken, su.pc)
            if pred.taken:
                self._check_btb(su, now)
                self._bundle_ended = True
            if self.wrong_path:
                self.pc = rec.predicted_target
            elif pred.taken != rec.actual_taken:
                rec.mispredict = True
                if self.collect:
                    self._c_dir_mispredicts.value += 1
                self.wrong_path = True
                self.pc = rec.predicted_target
            else:
                self.cursor += 1
            return

        if kind is _DIRECT_JUMP or kind is _CALL:
            rec.predicted_taken = True
            rec.predicted_target = su.target
            if kind is _CALL:
                self.ras.push(su.fallthrough)
            self._check_btb(su, now)
            self._bundle_ended = True
            if self.wrong_path:
                self.pc = su.target
            else:
                self.cursor += 1
            return

        if kind is _RETURN:
            target = self.ras.pop()
            rec.predicted_taken = True
            rec.predicted_target = target if target is not None else -1
            self._bundle_ended = True
            if self.wrong_path:
                if target is None:
                    self.dead = True
                else:
                    self.pc = target
            elif target != rec.actual_next_pc:
                rec.mispredict = True
                if self.collect:
                    self._c_tgt_mispredicts.value += 1
                if target is None:
                    self.dead = True
                else:
                    self.wrong_path = True
                    self.pc = target
            else:
                self.cursor += 1
            return

        # indirect jump
        target = self.bu.indirect.predict(su.pc, self.history.ghr)
        rec.predicted_taken = True
        rec.predicted_target = target if target is not None else -1
        self._bundle_ended = True
        if target is None:
            self._check_btb(su, now)  # misfetch: no target known at all
            target = su.fallthrough   # fetch falls through until re-steer
        if self.wrong_path:
            self.pc = target
            if self.program.uop_at(target) is None:
                self.dead = True
        elif target != rec.actual_next_pc:
            rec.mispredict = True
            if self.collect:
                self._c_tgt_mispredicts.value += 1
            self.wrong_path = True
            self.pc = target
            if self.program.uop_at(target) is None:
                self.dead = True
        else:
            self.cursor += 1
