"""Seeded inputs and the correctness gate.

Every run derives its inputs from ``--seed``: the simulation seed (which
also fixes the sampling window placements) is drawn from a pool of
:data:`SEED_POOL` seeds, and the job order and the service request
sequence come from ``random.Random`` streams seeded with ``--seed``
itself. ``reference.json`` holds the simulated outcome of every cell any
seed can issue, keyed by a label that names the cell and its seed rather
than by the cache key, so a config change that keeps cycles identical
keeps the reference valid. ``python3 perfbench/make_reference.py``
regenerates it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

REFERENCE = Path(__file__).with_name("reference.json")

#: distinct simulation seeds; ``--seed`` values that agree modulo this
#: count simulate the same cells (their job orders still differ)
SEED_POOL = 16


def sim_seed(seed: int) -> int:
    """Simulation and sampling-placement seed for benchmark ``seed``."""
    return 1000 + seed % SEED_POOL


def dense_outcome(payload: dict) -> list:
    return [payload["cycles"], payload["instructions"]]


def sampled_outcome(payload: dict) -> list:
    return [payload["ipc"], payload["ipc_ci"]["half_width"]]


def load_reference(path: Path = REFERENCE) -> Dict[str, list]:
    with path.open() as handle:
        return json.load(handle)["outcomes"]


class Gate:
    """Counts operations and their failures; each operation passes only
    if every result it produced matches the reference, keeps the CPI
    stack summing to ``width * cycles`` and never hit the cycle cap."""

    def __init__(self, reference: Optional[Dict[str, list]] = None) -> None:
        self.reference = load_reference() if reference is None \
            else reference
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def problems(self, label: str, payload: Optional[dict],
                 width: int, sampled: bool = False) -> List[str]:
        """Why ``payload`` (the cell ``label``) is wrong; empty if right."""
        from repro.obs.accounting import CpiStackError, stack_from_counters
        if payload is None:
            return [f"{label}: no result"]
        out = []
        expected = self.reference.get(label)
        got = sampled_outcome(payload) if sampled \
            else dense_outcome(payload)
        if expected is None:
            out.append(f"{label}: no reference outcome")
        elif got != expected:
            what = "ipc, ci" if sampled else "cycles, instructions"
            out.append(f"{label}: ({what}) = {got}, reference {expected}")
        counters = payload.get("counters", {})
        try:
            stack_from_counters(counters, width=width,
                                cycles=payload["cycles"]).check()
        except CpiStackError as exc:
            out.append(f"{label}: {exc}")
        if counters.get("cycle_cap_hit"):
            out.append(f"{label}: cycle_cap_hit")
        return out

    def record(self, operation: str, problems: List[str]) -> bool:
        """Count one operation; ``problems`` non-empty marks it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(f"{operation}: {p}" for p in problems)
        return not problems

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def report(self) -> None:
        share = self.failed / self.attempted if self.attempted else 1.0
        print(f"\ncorrectness gate: {self.failed} of {self.attempted} "
              f"operations failed (failure share {share:.4f})")
        for line in self.errors[:20]:
            print(f"  FAIL {line}")
        if len(self.errors) > 20:
            print(f"  ... and {len(self.errors) - 20} more")
