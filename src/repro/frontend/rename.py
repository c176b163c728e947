"""Register renaming: RAT, checkpoints, and the ready-time scoreboard.

Physical registers are modelled as monotonically increasing tags; the
scoreboard maps a tag to the cycle its value becomes available. Branches
checkpoint the RAT (a 32-entry tuple) so misprediction recovery restores
the mapping exactly — squashed uops only ever wrote tags that no surviving
mapping references, so the scoreboard needs no rollback.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.isa.opcodes import NUM_ARCH_REGS

__all__ = ["RenameTable"]


class RenameTable:
    def __init__(self) -> None:
        self._next_tag = NUM_ARCH_REGS
        self._rat: List[int] = list(range(NUM_ARCH_REGS))
        self._ready: Dict[int, int] = {tag: 0 for tag in range(NUM_ARCH_REGS)}
        self.checkpoints_taken = 0

    def lookup(self, arch_reg: int) -> int:
        return self._rat[arch_reg]

    def ready_cycle(self, tag: int) -> int:
        return self._ready.get(tag, 0)

    def source_ready(self, arch_reg: int) -> int:
        """Ready cycle of ``arch_reg``'s current producer (0 when the
        value is architecturally available). Fuses lookup + ready_cycle
        for the allocation hot path."""
        return self._ready.get(self._rat[arch_reg], 0)

    def allocate(self, arch_reg: int) -> int:
        """Map ``arch_reg`` to a fresh tag; caller sets its ready time."""
        tag = self._next_tag
        self._next_tag += 1
        self._rat[arch_reg] = tag
        return tag

    def set_ready(self, tag: int, cycle: int) -> None:
        self._ready[tag] = cycle

    def checkpoint(self) -> Tuple[int, ...]:
        self.checkpoints_taken += 1
        return tuple(self._rat)

    def restore(self, snapshot: Tuple[int, ...]) -> None:
        self._rat = list(snapshot)

    def settle(self, cycle: int) -> None:
        """Keep only the RAT's tags on the scoreboard, each ready by
        ``cycle`` at the latest (pipeline quiesce: with no uop in flight
        and no checkpoint left, no other tag can be read again, and the
        values of squashed producers are architecturally available now).
        This also bounds the scoreboard, which gains a tag per renamed
        destination, at every quiesce."""
        ready = self._ready
        self._ready = {tag: min(ready.get(tag, 0), cycle)
                       for tag in self._rat}

    def snapshot(self) -> dict:
        return {
            "next_tag": self._next_tag,
            "rat": list(self._rat),
            "ready": dict(self._ready),
            "checkpoints_taken": self.checkpoints_taken,
        }

    def restore_state(self, state: dict) -> None:
        self._next_tag = state["next_tag"]
        self._rat = list(state["rat"])
        self._ready = dict(state["ready"])
        self.checkpoints_taken = state["checkpoints_taken"]
