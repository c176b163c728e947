"""Execution timing model: functional-unit contention and latency.

Timing is computed when a uop is allocated: its issue cycle is the first
cycle at or after its operands are ready with a free slot on its FU class
and within the global issue width. This "compute-at-allocate" style is what
keeps a pure-Python cycle model fast while preserving the quantities APF
cares about — most importantly *when branches resolve* relative to when
they were predicted.
"""

from __future__ import annotations

from repro.common.config import BackendConfig
from repro.isa.opcodes import FU_NAMES

__all__ = ["ExecModel"]


class ExecModel:
    """Per-class ports, latencies and issue slots, each a list indexed by
    a uop's execution class (``StaticUop.fu``, one of the ``FU_*`` ints)."""

    def __init__(self, config: BackendConfig) -> None:
        self.config = config
        # in FU_NAMES order: alu, mul, div, load, store, branch
        self._ports = [config.int_alu_units, config.mul_units,
                       config.div_units, config.load_ports,
                       config.store_ports, config.branch_units]
        self._latency = [config.alu_latency, config.mul_latency,
                         config.div_latency,
                         config.agen_latency,   # cache latency added by caller
                         config.agen_latency, config.alu_latency]
        self._issue_width = config.issue_width
        # per-FU-class and total issue counts, as grow-on-demand lists
        # indexed by ``cycle - _base`` (integer-keyed dicts lose to flat
        # lists on this, the backend's hottest probe loop). ``_base`` is
        # rebased lazily on the first reservation after construction,
        # clear() or restore(), so long quiesced gaps cost nothing.
        self._fu_slots = [[] for _ in FU_NAMES]
        self._issued: list = []
        self._base = -1
        self._horizon = 0

    def latency(self, fu: int) -> int:
        return self._latency[fu]

    def schedule(self, fu: int, ready_cycle: int) -> int:
        """Reserve the earliest issue slot at/after ``ready_cycle``."""
        base = self._base
        if base < 0 or ready_cycle < base:
            self._rebase(ready_cycle)
            base = ready_cycle
        slots = self._fu_slots[fu]
        issued = self._issued
        ports = self._ports[fu]
        width = self._issue_width
        i = ready_cycle - base
        n = len(issued)
        if i >= n:
            grow = i + 1 - n
            issued.extend([0] * grow)
            for lst in self._fu_slots:
                lst.extend([0] * grow)
            n = i + 1
        while slots[i] >= ports or issued[i] >= width:
            i += 1
            if i >= n:
                issued.append(0)
                for lst in self._fu_slots:
                    lst.append(0)
                n += 1
        slots[i] += 1
        issued[i] += 1
        cycle = base + i
        if cycle > self._horizon:
            self._horizon = cycle
        return cycle

    def _rebase(self, at_cycle: int) -> None:
        """Re-anchor the arrays so index 0 is ``at_cycle``.

        Fresh/cleared state anchors for free; an earlier-than-base
        reservation (never happens under the core's trim horizon, but
        kept correct regardless) prepends zero slack."""
        base = self._base
        if base < 0 or not self._issued:
            self._base = at_cycle
            return
        pad = [0] * (base - at_cycle)
        self._issued[:0] = pad
        for lst in self._fu_slots:
            lst[:0] = list(pad)
        self._base = at_cycle

    def next_wakeup(self, now: int):
        """Earliest cycle at/after ``now`` this model needs ticking: None.

        ExecModel is compute-at-allocate — every issue slot and completion
        time is materialised the moment :meth:`schedule` is called, so the
        model never needs a per-cycle tick of its own. Completion times
        the core must observe already live in ``rob[*].done_cycle`` and in
        the core's branch-resolution event heap; the skip loop consults
        those directly.
        """
        del now
        return None

    def clear(self) -> None:
        """Drop all reservations (pipeline quiesce: in-flight uops are
        squashed, so their future issue slots must be released)."""
        for slots in self._fu_slots:
            slots.clear()
        self._issued.clear()
        self._base = -1
        self._horizon = 0

    def snapshot(self) -> dict:
        # externalised as sparse {cycle: count} dicts keyed by FU name —
        # the stable format the loop-equivalence suite compares across
        # driver variants, independent of the internal array anchoring
        base = self._base
        return {
            "fu_slots": {name: {base + i: v
                                for i, v in enumerate(slots) if v}
                         for name, slots in zip(FU_NAMES, self._fu_slots)},
            "issued": {base + i: v
                       for i, v in enumerate(self._issued) if v},
            "horizon": self._horizon,
        }

    def restore(self, state: dict) -> None:
        issued = state["issued"]
        cycles = list(issued)
        for slots in state["fu_slots"].values():
            cycles.extend(slots)
        if not cycles:
            self.clear()
            self._horizon = state["horizon"]
            return
        base = min(cycles)
        span = max(cycles) - base + 1
        self._base = base
        self._issued = lst = [0] * span
        for cyc, v in issued.items():
            lst[cyc - base] = v
        self._fu_slots = []
        for name in FU_NAMES:
            lst = [0] * span
            for cyc, v in state["fu_slots"].get(name, {}).items():
                lst[cyc - base] = v
            self._fu_slots.append(lst)
        self._horizon = state["horizon"]

    def trim(self, before_cycle: int) -> None:
        """Forget reservations older than ``before_cycle`` (memory bound)."""
        cut = before_cycle - self._base
        if self._base < 0 or cut < 4096:
            return
        if cut > len(self._issued):
            cut = len(self._issued)
        del self._issued[:cut]
        for slots in self._fu_slots:
            del slots[:cut]
        self._base += cut
