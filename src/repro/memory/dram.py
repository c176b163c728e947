"""Banked DRAM timing model (Ramulator substitute).

Models what matters to branch-resolution timing: per-bank row buffers with
hit/miss/conflict latencies plus a fixed channel latency. Each bank
remembers its open row and the cycle it becomes free; a request to a busy
bank queues behind it.
"""

from __future__ import annotations

from repro.common.config import DramConfig
from repro.common.statistics import StatGroup

__all__ = ["Dram"]


class Dram:
    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self._open_row = [-1] * config.num_banks
        self._bank_free_at = [0] * config.num_banks
        self.stats = StatGroup("dram")
        self._c_accesses = self.stats.counter("accesses")
        self._c_row_hits = self.stats.counter("row_hits")
        self._c_row_misses = self.stats.counter("row_misses")
        self._c_row_conflicts = self.stats.counter("row_conflicts")

    def next_wakeup(self, now: int):
        """Earliest cycle at/after ``now`` DRAM needs ticking: None.

        Like :class:`~repro.backend.exec_model.ExecModel`, DRAM timing is
        computed in full when :meth:`access` is called (queue delay folded
        into the returned latency), so there is never a pending DRAM event
        the core must wake for — completions surface through load
        ``done_cycle``s and the branch-resolution event heap.
        """
        del now
        return None

    def snapshot(self) -> dict:
        return {
            "open_row": list(self._open_row),
            "bank_free_at": list(self._bank_free_at),
            "stats": self.stats.state(),
        }

    def restore(self, state: dict) -> None:
        self._open_row = list(state["open_row"])
        self._bank_free_at = list(state["bank_free_at"])
        self.stats.load_state(state["stats"])

    def settle(self, cycle: int) -> None:
        """Mark all banks idle at ``cycle``. Used after a functional
        fast-forward: accesses made with a frozen clock pile queue delay
        onto the banks, but in wall-clock terms the banks would long since
        have drained."""
        self._bank_free_at = [min(free, cycle)
                              for free in self._bank_free_at]

    def access(self, address: int, cycle: int = 0) -> int:
        """Return the latency of a DRAM access issued at ``cycle``."""
        cfg = self.config
        row = address // cfg.row_bytes
        bank = row % cfg.num_banks
        self._c_accesses.value += 1
        queue_delay = self._bank_free_at[bank] - cycle
        if queue_delay < 0:
            queue_delay = 0
        if self._open_row[bank] == row:
            service = cfg.t_row_hit
            self._c_row_hits.value += 1
        elif self._open_row[bank] < 0:
            service = cfg.t_row_miss
            self._c_row_misses.value += 1
        else:
            service = cfg.t_row_conflict
            self._c_row_conflicts.value += 1
        self._open_row[bank] = row
        self._bank_free_at[bank] = cycle + queue_delay + service
        return cfg.channel_latency + queue_delay + service
