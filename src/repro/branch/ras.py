"""Return address stacks: the main RAS and APF's 4-entry shadow RAS.

The main RAS is checkpointed on every in-flight branch (pointer + contents;
our stacks are small enough that full-copy checkpoints are cheap and exact).
The shadow RAS overlays the main RAS while fetching an alternate path: calls
made on the alternate path push to the shadow stack, and returns pop from
the shadow stack first — without disturbing main RAS state. If the
alternate path turns out correct, the shadow entries are replayed onto the
main RAS (paper Section V-G).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["ReturnAddressStack", "ShadowRAS"]


class ReturnAddressStack:
    def __init__(self, entries: int = 32) -> None:
        self.capacity = entries
        self._stack: List[int] = []
        # cached contents tuple; None when the stack mutated since the
        # last checkpoint. Every in-flight branch checkpoints the RAS,
        # but only calls/returns mutate it, so consecutive conditional
        # branches all share one tuple.
        self._ckpt: Optional[Tuple[int, ...]] = ()

    def push(self, return_pc: int) -> None:
        if not self.capacity:
            return      # a zero-entry stack drops every push
        if len(self._stack) >= self.capacity:
            self._stack.pop(0)  # overflow drops the oldest entry
        self._stack.append(return_pc)
        self._ckpt = None

    def pop(self) -> Optional[int]:
        if not self._stack:
            return None
        self._ckpt = None
        return self._stack.pop()

    def peek(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def checkpoint(self) -> Tuple[int, ...]:
        ckpt = self._ckpt
        if ckpt is None:
            ckpt = self._ckpt = tuple(self._stack)
        return ckpt

    def restore(self, snapshot: Tuple[int, ...]) -> None:
        self._stack = list(snapshot)
        self._ckpt = snapshot

    def __len__(self) -> int:
        return len(self._stack)


class ShadowRAS:
    """Alternate-path RAS overlay (bounded, drops on overflow)."""

    def __init__(self, main: ReturnAddressStack, entries: int = 4) -> None:
        self.capacity = entries
        self.main_snapshot: Tuple[int, ...] = main.checkpoint()
        self._overlay: List[int] = []
        self._main_pops = 0          # returns that consumed main entries
        # cached state() tuple (same scheme as ReturnAddressStack._ckpt):
        # every shadow branch stores the state, few of them mutate it
        self._state: Optional[Tuple[Tuple[int, ...], int]] = ((), 0)

    def push(self, return_pc: int) -> None:
        if not self.capacity:
            return      # a zero-entry overlay drops every push
        if len(self._overlay) >= self.capacity:
            self._overlay.pop(0)
        self._overlay.append(return_pc)
        self._state = None

    def pop(self) -> Optional[int]:
        if self._overlay:
            self._state = None
            return self._overlay.pop()
        # fall through to the (snapshotted) main stack
        index = len(self.main_snapshot) - 1 - self._main_pops
        if index < 0:
            return None
        self._main_pops += 1
        self._state = None
        return self.main_snapshot[index]

    def state(self) -> Tuple[Tuple[int, ...], int]:
        """Serialisable state stored in an Alternate Path Buffer."""
        state = self._state
        if state is None:
            state = self._state = (tuple(self._overlay), self._main_pops)
        return state

    def load_state(self, state: Tuple[Tuple[int, ...], int]) -> None:
        overlay, pops = state
        self._overlay = list(overlay)
        self._main_pops = pops
        self._state = state

    def apply_to_main(self, main: ReturnAddressStack) -> None:
        """Replay this shadow state onto the main RAS after a correct
        alternate path is promoted (restore path of Section V-G)."""
        base = list(self.main_snapshot)
        if self._main_pops:
            base = base[:-self._main_pops] if self._main_pops <= len(base) else []
        main.restore(tuple(base))
        for return_pc in self._overlay:
            main.push(return_pc)
