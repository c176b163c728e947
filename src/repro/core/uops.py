"""Dynamic uop and in-flight branch records used by the timing core."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.isa.opcodes import BranchKind
from repro.isa.uop import StaticUop

__all__ = ["DynUop", "InflightBranch", "BufferedUop"]

# bound once as a module name: on Python 3.11 and older EnumType defines
# ``__getattr__``, which sends every ``BranchKind.X`` read through a slow
# lookup hook (docs/ARCHITECTURE.md §8.4)
_CONDITIONAL = BranchKind.CONDITIONAL


class DynUop:
    """One fetched uop instance travelling through the pipeline."""

    __slots__ = ("seq", "static", "trace_index", "wrong_path", "mem_addr",
                 "branch", "done_cycle", "squashed", "restored")

    def __init__(self, seq: int, static: StaticUop, trace_index: int,
                 wrong_path: bool, mem_addr: int,
                 branch: Optional["InflightBranch"] = None,
                 restored: bool = False) -> None:
        self.seq = seq
        self.static = static
        self.trace_index = trace_index      # -1 on the wrong path
        self.wrong_path = wrong_path
        self.mem_addr = mem_addr
        self.branch = branch
        self.done_cycle = 0
        self.squashed = False
        self.restored = restored            # came out of an APF buffer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "WP" if self.wrong_path else f"t{self.trace_index}"
        return f"<DynUop #{self.seq} {self.static.op.name}@{self.static.pc:#x} {tag}>"


class InflightBranch:
    """Everything the core remembers about a predicted branch.

    This is the paper's in-flight branch queue entry, augmented with APF's
    two extra bits (H2P-marked, TAGE-low-confidence) and the buffer ID.
    """

    __slots__ = (
        "seq", "uop", "kind", "pc", "on_trace", "recovery_cursor",
        "predicted_taken", "actual_taken", "predicted_target",
        "actual_next_pc", "mispredict", "hist_checkpoint", "ras_checkpoint",
        "ghr_at_predict", "path_at_predict", "folds_at_predict",
        "rat_checkpoint",
        "h2p_marked", "low_conf", "apf_job", "apf_buffer",
        "resolved", "squashed", "allocated", "fetch_cycle", "dpip_eligible",
        "is_conditional",
    )

    def __init__(self, seq: int, uop: StaticUop, kind: BranchKind,
                 on_trace: bool, fetch_cycle: int) -> None:
        self.seq = seq
        self.uop = uop
        self.kind = kind
        self.is_conditional = kind is _CONDITIONAL
        self.pc = uop.pc
        self.on_trace = on_trace
        self.recovery_cursor = -1          # trace index after this branch
        self.predicted_taken = False
        self.actual_taken = False
        self.predicted_target = -1
        self.actual_next_pc = -1
        self.mispredict = False
        self.hist_checkpoint: Tuple = ()
        self.ras_checkpoint: Tuple = ()
        self.ghr_at_predict = 0
        self.path_at_predict = 0
        # fold vectors captured in the same checkpoint as ghr/path, so
        # the retire-time predictor update recomputes no fold
        self.folds_at_predict: Optional[Tuple] = None
        self.rat_checkpoint: Tuple = ()
        self.h2p_marked = False
        self.low_conf = False
        self.apf_job = None                # active APFJob fetching our path
        self.apf_buffer = None             # AlternatePathBuffer holding it
        self.resolved = False
        self.squashed = False
        self.allocated = False
        self.fetch_cycle = fetch_cycle
        self.dpip_eligible = True

    def has_alternate_path(self) -> bool:
        return self.apf_job is not None or self.apf_buffer is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join((
            "M" if self.mispredict else "",
            "H" if self.h2p_marked else "",
            "L" if self.low_conf else "",
            "R" if self.resolved else "",
        ))
        return f"<Branch #{self.seq} {self.pc:#x} {self.kind.name} {flags}>"


class BufferedUop:
    """One alternate-path uop held in the APF pipeline / a path buffer."""

    __slots__ = ("static", "predicted_taken", "predicted_target",
                 "hist_checkpoint", "ghr_at_predict", "path_at_predict",
                 "ras_state", "h2p_marked", "low_conf")

    def __init__(self, static: StaticUop, predicted_taken: bool = False,
                 predicted_target: int = -1,
                 hist_checkpoint: Tuple = (), ghr_at_predict: int = 0,
                 path_at_predict: int = 0, ras_state: Tuple = (),
                 h2p_marked: bool = False, low_conf: bool = False) -> None:
        self.static = static
        self.predicted_taken = predicted_taken
        self.predicted_target = predicted_target
        self.hist_checkpoint = hist_checkpoint
        self.ghr_at_predict = ghr_at_predict
        self.path_at_predict = path_at_predict
        self.ras_state = ras_state
        self.h2p_marked = h2p_marked
        self.low_conf = low_conf
