"""Functional fast-forward: advance the trace without cycle accounting.

The warmer walks the dynamic trace from the core's current retire point,
training exactly the long-lived microarchitectural state the detailed
intervals depend on — direction predictor (with speculative-history
updates), BTB, RAS, indirect predictor, H2P counters (including their
global decay), instruction/data caches, and the D-TLB — while leaving the
cycle clock frozen. The core must be quiesced (empty pipeline) before
advancing; afterwards fetch sits on the trace at the new retire point,
ready for a detailed interval.

On every detected misprediction the warmer also walks a bounded stretch of
the *wrong path* through the static image, touching I-cache lines and
issuing synthetic-address loads/stores the way detailed allocation does.
This matters: wrong-path memory accesses both pollute the near caches and
populate the LLC with large parts of the data segment, and skipping them
leaves the sampled intervals with a visibly different memory hierarchy
than a dense run (tens of percent of IPC on memory-bound workloads).

Timing-only structures (exec-model reservations, per-interval stat
counters) are deliberately untouched: they carry no history across an
interval boundary once the pipeline has drained.
"""

from __future__ import annotations

from repro.isa.opcodes import BranchKind, Op

from repro.core.fetch_engine import synthetic_address

__all__ = ["FunctionalWarmer"]


class FunctionalWarmer:
    #: uops of wrong path emulated per detected misprediction. This is a
    #: *warmth proxy*, not a volume match: the detailed core fetches far
    #: more wrong-path uops per misprediction (resolution delay × fetch
    #: width, often >100), but its wrong-path accesses cost fetch
    #: bandwidth and pollute the near caches, whereas the walker's are
    #: free. Calibrated against dense runs across the workload suite —
    #: larger budgets over-prefetch the data segment and make sampled
    #: memory-bound runs measurably too fast.
    WRONG_PATH_UOPS = 8

    def __init__(self, core, wrong_path_uops: int = 0) -> None:
        self.core = core
        self.wrong_path_uops = wrong_path_uops or self.WRONG_PATH_UOPS

    def advance(self, count: int) -> int:
        """Functionally execute up to ``count`` instructions from the
        core's retire point; return how many were actually advanced (the
        trace may end first). The core must be quiesced."""
        core = self.core
        if core.rob or core.ftq or core.inflight:
            raise RuntimeError("functional fast-forward requires a "
                               "quiesced core (call quiesce() first)")
        trace = core.trace
        start = core.retired
        end = min(start + count, len(trace))
        if end <= start:
            return 0

        uops = trace.uops
        taken_arr = trace.taken
        next_pc_arr = trace.next_pc
        mem_addrs = trace.mem_addr
        fetch = core.fetch
        hist = fetch.history
        ras = fetch.ras
        predictor = core.branch_unit.predictor
        btb = core.branch_unit.btb
        indirect = core.branch_unit.indirect
        h2p = core.h2p_table
        hierarchy = core.hierarchy
        dtlb = core.dtlb
        now = core.now
        line_bytes = hierarchy.icache.config.line_bytes
        last_line = -1
        store_op = Op.STORE
        cond = BranchKind.CONDITIONAL
        call = BranchKind.CALL
        ret = BranchKind.RETURN
        jump = BranchKind.DIRECT_JUMP

        for index in range(start, end):
            su = uops[index]
            pc = su.pc
            line = pc // line_bytes
            if line != last_line:
                hierarchy.ifetch(pc, now)
                last_line = line
            if su.is_branch:
                kind = su.kind
                if kind is cond:
                    actual = taken_arr[index]
                    folds = hist.folds
                    pred = predictor.predict(pc, hist.ghr, hist.path, folds)
                    if pred.taken != actual:
                        h2p.record_misprediction(pc)
                        wrong_pc = su.target if pred.taken \
                            else su.fallthrough
                        self._walk_wrong_path(wrong_pc, pred.taken, su)
                    predictor.update(pc, hist.ghr, actual, hist.path,
                                     backward=0 <= su.target < pc,
                                     folds=folds)
                    if actual and btb.lookup(pc) is None:
                        target = su.target if su.target >= 0 \
                            else su.fallthrough
                        btb.insert(pc, kind, target)
                    hist.push(actual, pc)
                elif kind is call:
                    ras.push(su.fallthrough)
                    if btb.lookup(pc) is None:
                        btb.insert(pc, kind, su.target)
                elif kind is ret:
                    ras.pop()
                elif kind is jump:
                    if btb.lookup(pc) is None:
                        btb.insert(pc, kind, su.target)
                else:  # indirect
                    indirect.update(pc, hist.ghr, next_pc_arr[index])
            elif su.is_mem:
                addr = mem_addrs[index]
                if su.op is store_op:
                    hierarchy.dstore(addr, now)
                else:
                    hierarchy.dload(addr, now)
                dtlb.access(addr)
            h2p.tick_instructions(1)

        core.retired = end
        fetch.redirect_on_trace(end, now)
        # frozen-clock accesses piled queue delay onto the DRAM banks;
        # in wall-clock terms they drained long ago
        hierarchy.dram.settle(now)
        return end - start

    def _walk_wrong_path(self, pc: int, first_taken: bool, from_su) -> None:
        """Emulate the cache side effects of wrong-path fetch/allocation:
        follow the predicted (wrong) direction through the static image,
        predicting further branches with the real predictor over a local
        history copy, touching I-cache lines and issuing synthetic-address
        data accesses. Predictor/history/RAS state is left untouched —
        exactly as in the detailed core, where recovery restores them and
        wrong-path uops never retire (so never update the predictor)."""
        core = self.core
        program = core.program
        hierarchy = core.hierarchy
        dtlb = core.dtlb
        predictor = core.branch_unit.predictor
        btb = core.branch_unit.btb
        fetch = core.fetch
        hist = fetch.history
        # the wrong direction of the initiating branch is already "pushed"
        ghr = ((hist.ghr << 1) | (1 if first_taken else 0))
        path = hist.path
        now = core.now
        line_bytes = hierarchy.icache.config.line_bytes
        last_line = -1
        store_op = Op.STORE
        cond = BranchKind.CONDITIONAL
        ret = BranchKind.RETURN
        indirect = BranchKind.INDIRECT

        for _ in range(self.wrong_path_uops):
            su = program.uop_at(pc)
            if su is None or su.op is Op.HALT:
                return
            line = pc // line_bytes
            if line != last_line:
                if not hierarchy.icache.probe(pc):
                    return   # dense wrong-path fetch stalls on the miss
                hierarchy.ifetch(pc, now)
                last_line = line
            if su.is_branch:
                kind = su.kind
                if kind is cond:
                    # only the local ghr shifts (path stays put), so no
                    # history maintains its folds: predict recomputes them
                    pred = predictor.predict(pc, ghr, path)
                    ghr = (ghr << 1) | (1 if pred.taken else 0)
                    if pred.taken:
                        if btb.lookup(pc) is None:
                            btb.insert(pc, kind, su.target)
                        pc = su.target
                    else:
                        pc = su.fallthrough
                elif kind in (ret, indirect):
                    return   # dense fetch re-steers via RAS/ITTAGE; stop
                else:        # direct jump / call
                    if btb.lookup(pc) is None:
                        btb.insert(pc, kind, su.target)
                    pc = su.target
            else:
                if su.is_mem:
                    addr = synthetic_address(program, su.pc, fetch.seq)
                    fetch.seq += 1
                    if su.op is store_op:
                        hierarchy.dstore(addr, now)
                    else:
                        hierarchy.dload(addr, now)
                        dtlb.access(addr)
                pc = su.fallthrough
