"""Top-down CPI-stack cycle accounting (``repro.obs.accounting``).

Every issue slot of every simulated cycle is attributed to exactly one
leaf of a hierarchical CPI stack.  The core (``OoOCore``) produces the
attribution as ordinary collect-gated stat counters named
``cpi_<leaf>``; this module owns the taxonomy, the sum invariant, and
the presentation/serialisation layer on top of those counters.

Taxonomy (group -> leaves)::

    retired    base
    frontend   frontend_icache frontend_itlb frontend_btb_redirect
               frontend_ftq_empty
    bad_spec   bad_spec_wrong_path bad_spec_refill_apf_covered
               bad_spec_refill_apf_uncovered bad_spec_refill_non_h2p
    backend    backend_rob backend_scheduler backend_lq backend_sq
               backend_dram
    retire     retire_bw

Invariant: ``sum(slots.values()) == width * cycles`` for every run,
bit-identical between the per-cycle reference loop and the skipping
loop, and unchanged by attaching an observability sink.

``frontend_itlb`` is reserved: the fetch path models no ITLB (see
ARCHITECTURE "Simplifications"), so the leaf is defined for schema
stability but always zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "CPI_PREFIX", "CPI_GROUPS", "CPI_LEAVES", "CPI_SCHEMA_VERSION",
    "LEAF_GROUP", "LEAF_LABELS",
    "CpiStack", "CpiStackError", "apf_coverage", "cpi_slot_deltas",
    "diff_stacks", "load_stacks", "render_coverage", "render_diff",
    "render_leaf_table", "stack_from_counters", "stack_from_result",
]

CPI_PREFIX = "cpi_"

#: Artifact-schema generation that introduced CPI-stack records. Dumps and
#: manifests written by earlier builds (v1: raw counters only, v2: obs
#: metric streams without the ``cpi_stack`` kind) carry no ``cpi_*``
#: leaves; loaders below detect that and say so instead of surfacing a
#: raw ``KeyError`` from the middle of a diff.
CPI_SCHEMA_VERSION = 3

CPI_GROUPS: Dict[str, Tuple[str, ...]] = {
    "retired": ("base",),
    "frontend": ("frontend_icache", "frontend_itlb",
                 "frontend_btb_redirect", "frontend_ftq_empty"),
    "bad_spec": ("bad_spec_wrong_path", "bad_spec_refill_apf_covered",
                 "bad_spec_refill_apf_uncovered", "bad_spec_refill_non_h2p"),
    "backend": ("backend_rob", "backend_scheduler", "backend_lq",
                "backend_sq", "backend_dram"),
    "retire": ("retire_bw",),
}

CPI_LEAVES: Tuple[str, ...] = tuple(
    leaf for leaves in CPI_GROUPS.values() for leaf in leaves)

LEAF_GROUP: Dict[str, str] = {
    leaf: group for group, leaves in CPI_GROUPS.items() for leaf in leaves}

LEAF_LABELS: Dict[str, str] = {
    "base": "retired (useful slots)",
    "frontend_icache": "frontend: icache",
    "frontend_itlb": "frontend: itlb (reserved)",
    "frontend_btb_redirect": "frontend: btb redirect",
    "frontend_ftq_empty": "frontend: ftq empty / pipe fill",
    "bad_spec_wrong_path": "bad spec: wrong-path slots",
    "bad_spec_refill_apf_covered": "bad spec: refill, apf-covered",
    "bad_spec_refill_apf_uncovered": "bad spec: refill, apf-uncovered",
    "bad_spec_refill_non_h2p": "bad spec: refill, non-h2p",
    "backend_rob": "backend: rob full",
    "backend_scheduler": "backend: scheduler full",
    "backend_lq": "backend: load queue full",
    "backend_sq": "backend: store queue full",
    "backend_dram": "backend: dram-bound",
    "retire_bw": "retire bandwidth",
}


class CpiStackError(ValueError):
    """Raised on malformed stacks or a violated sum invariant."""


@dataclass
class CpiStack:
    """One run's slot attribution: ``slots[leaf]`` issue slots per leaf."""

    width: int
    cycles: int
    slots: Dict[str, int] = field(default_factory=dict)
    workload: str = ""
    config: str = ""
    instructions: int = 0

    def __post_init__(self) -> None:
        unknown = sorted(set(self.slots) - set(CPI_LEAVES))
        if unknown:
            raise CpiStackError(f"unknown CPI leaves: {', '.join(unknown)}")
        for leaf in CPI_LEAVES:
            self.slots.setdefault(leaf, 0)

    @property
    def total_slots(self) -> int:
        return self.width * self.cycles

    def check(self) -> "CpiStack":
        """Assert the sum invariant; return self for chaining."""
        total = sum(self.slots.values())
        if total != self.total_slots:
            raise CpiStackError(
                f"CPI stack for {self.workload or '?'}/{self.config or '?'} "
                f"does not sum: {total} slots attributed vs "
                f"width*cycles = {self.width}*{self.cycles} = "
                f"{self.total_slots}")
        return self

    def fractions(self) -> Dict[str, float]:
        total = self.total_slots
        if total <= 0:
            return {leaf: 0.0 for leaf in CPI_LEAVES}
        return {leaf: self.slots[leaf] / total for leaf in CPI_LEAVES}

    def leaf_cycles(self, leaf: str) -> float:
        """Slots of ``leaf`` expressed in whole-machine cycles."""
        return self.slots[leaf] / self.width if self.width else 0.0

    def cpi_contribution(self, leaf: str) -> float:
        """CPI contributed by ``leaf`` (slots / width / instructions)."""
        if not self.instructions or not self.width:
            return 0.0
        return self.slots[leaf] / self.width / self.instructions

    def label(self) -> str:
        parts = [p for p in (self.workload, self.config) if p]
        return "/".join(parts) or "run"

    def to_record(self) -> Dict[str, object]:
        """Serialisable form, shared by --json dumps, manifests and the
        ``cpi_stack`` metric record (zero leaves omitted)."""
        return {
            "workload": self.workload,
            "config": self.config,
            "width": self.width,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "slots": {leaf: self.slots[leaf] for leaf in CPI_LEAVES
                      if self.slots[leaf]},
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "CpiStack":
        missing = [key for key in ("width", "cycles", "slots")
                   if key not in record]
        if missing:
            raise CpiStackError(
                f"cpi_stack record lacks {', '.join(missing)} — written "
                f"by a build older than CPI-stack schema "
                f"v{CPI_SCHEMA_VERSION}; regenerate the artifact with "
                f"`repro cpistack --out` (or re-run the campaign) on a "
                f"current build")
        try:
            return cls(width=int(record["width"]),
                       cycles=int(record["cycles"]),
                       slots={str(k): int(v)
                              for k, v in dict(record["slots"]).items()},
                       workload=str(record.get("workload", "")),
                       config=str(record.get("config", "")),
                       instructions=int(record.get("instructions", 0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise CpiStackError(f"malformed cpi_stack record: {exc}") from exc

    def diff(self, other: "CpiStack") -> List[Tuple[str, float]]:
        """Per-leaf fraction deltas ``other - self``, largest |delta| first."""
        mine, theirs = self.fractions(), other.fractions()
        deltas = [(leaf, theirs[leaf] - mine[leaf]) for leaf in CPI_LEAVES]
        deltas.sort(key=lambda item: -abs(item[1]))
        return deltas


def cpi_slot_deltas(before: Mapping[str, int],
                    after: Mapping[str, int]) -> Dict[str, int]:
    """Nonzero ``cpi_*`` counter deltas between two stat snapshots, keyed
    by leaf name (prefix stripped).  Used for per-interval records."""
    out: Dict[str, int] = {}
    for key, value in after.items():
        if not key.startswith(CPI_PREFIX):
            continue
        delta = value - before.get(key, 0)
        if delta:
            out[key[len(CPI_PREFIX):]] = delta
    return out


def stack_from_counters(counters: Mapping[str, int], *, width: int,
                        cycles: int, workload: str = "", config: str = "",
                        instructions: int = 0) -> CpiStack:
    """Build a stack from a stats-counter mapping (``cpi_``-prefixed keys;
    non-CPI counters are ignored, unknown ``cpi_`` keys are an error)."""
    slots = {key[len(CPI_PREFIX):]: int(value)
             for key, value in counters.items()
             if key.startswith(CPI_PREFIX)}
    return CpiStack(width=width, cycles=cycles, slots=slots,
                    workload=workload, config=config,
                    instructions=instructions)


def stack_from_result(result, config, config_label: str = "") -> CpiStack:
    """Build a stack from a :class:`SimResult` and its :class:`RunConfig`.

    Duck-typed on purpose so ``repro.obs`` does not import the analysis
    layer: ``result`` needs ``counters/cycles/instructions/workload``,
    ``config`` needs ``backend.allocate_width``.
    """
    return stack_from_counters(
        result.counters, width=config.backend.allocate_width,
        cycles=result.cycles, workload=result.workload,
        config=config_label, instructions=result.instructions)


# -- loading stacks back from artifacts --------------------------------------

def _stacks_from_records(records) -> Dict[str, CpiStack]:
    out: Dict[str, CpiStack] = {}
    for record in records:
        stack = CpiStack.from_record(record)
        key = stack.label()
        if key in out:  # disambiguate duplicate workload/config pairs
            suffix = 2
            while f"{key}#{suffix}" in out:
                suffix += 1
            key = f"{key}#{suffix}"
        out[key] = stack
    return out


def load_stacks(path) -> Dict[str, CpiStack]:
    """Load CPI stacks from any of the artifacts that carry them:

    * a ``repro cpistack --json`` dump (``{"stacks": [...]}``),
    * a runner manifest (``{"jobs": [...]}`` with ``cpi_stack`` entries),
    * a JSONL metric stream (lines with ``"kind": "cpi_stack"``).

    Returns stacks keyed by ``workload/config`` label.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CpiStackError(f"{path}: {exc}") from exc
    try:
        if path.suffix == ".jsonl":
            records = []
            saw_any = False
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                saw_any = True
                record = json.loads(line)
                if record.get("kind") == "cpi_stack":
                    records.append(record)
            if not records:
                detail = ("stream predates CPI-stack accounting (schema "
                          f"v{CPI_SCHEMA_VERSION}); re-run with a current "
                          "build to emit cpi_stack records"
                          if saw_any else "empty metric stream")
                raise CpiStackError(
                    f"{path}: no cpi_stack metric records — {detail}")
            return _stacks_from_records(records)
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CpiStackError(f"{path}: not valid JSON ({exc})") from exc
    try:
        if isinstance(doc, dict) and "stacks" in doc:
            return _stacks_from_records(doc["stacks"])
        if isinstance(doc, dict) and "jobs" in doc:
            records = [entry["cpi_stack"] for entry in doc["jobs"]
                       if isinstance(entry, dict) and entry.get("cpi_stack")]
            if not records:
                raise CpiStackError(
                    f"{path}: manifest has no cpi_stack entries — it was "
                    f"written before CPI-stack accounting (schema "
                    f"v{CPI_SCHEMA_VERSION}) or its campaign ran without "
                    f"collect; re-run the campaign on a current build")
            return _stacks_from_records(records)
        if isinstance(doc, dict) and "slots" in doc:
            stack = CpiStack.from_record(doc)
            return {stack.label(): stack}
    except CpiStackError as exc:
        # record-level failures gain the file context the caller acted on
        if str(exc).startswith(str(path)):
            raise
        raise CpiStackError(f"{path}: {exc}") from exc
    raise CpiStackError(
        f"{path}: not a cpistack dump, runner manifest, or metric stream "
        f"(CPI-stack schema v{CPI_SCHEMA_VERSION})")


# -- rendering ---------------------------------------------------------------

def render_leaf_table(stack: CpiStack, min_fraction: float = 0.0) -> List[str]:
    """Grouped per-leaf table: slots, cycles, fraction, CPI contribution."""
    fracs = stack.fractions()
    lines = [f"CPI stack for {stack.label()}: width={stack.width} "
             f"cycles={stack.cycles} instructions={stack.instructions} "
             f"(ipc={stack.instructions / stack.cycles:.3f})"
             if stack.cycles else f"CPI stack for {stack.label()}: empty"]
    header = (f"  {'leaf':<34} {'slots':>12} {'cycles':>12} "
              f"{'%slots':>7} {'cpi':>7}")
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for group, leaves in CPI_GROUPS.items():
        group_frac = sum(fracs[leaf] for leaf in leaves)
        lines.append(f"  [{group}]  {group_frac * 100:.1f}%")
        for leaf in leaves:
            if fracs[leaf] < min_fraction and not stack.slots[leaf]:
                continue
            lines.append(
                f"    {LEAF_LABELS[leaf]:<32} {stack.slots[leaf]:>12} "
                f"{stack.leaf_cycles(leaf):>12.1f} "
                f"{fracs[leaf] * 100:>6.2f}% "
                f"{stack.cpi_contribution(leaf):>7.3f}")
    lines.append("  " + "-" * (len(header) - 2))
    total = sum(stack.slots.values())
    total_cpi = (total / stack.width / stack.instructions
                 if stack.instructions and stack.width else 0.0)
    lines.append(f"    {'total':<32} {total:>12} "
                 f"{float(stack.cycles):>12.1f} {'100.00%':>7} "
                 f"{total_cpi:>7.3f}")
    return lines


def diff_stacks(a: CpiStack, b: CpiStack,
                threshold: float = 0.005) -> List[Tuple[str, float, float, float]]:
    """Leaves whose slot fraction moved by more than ``threshold``
    (fraction points) between ``a`` and ``b``; largest mover first.
    Rows are ``(leaf, frac_a, frac_b, delta)``."""
    fa, fb = a.fractions(), b.fractions()
    rows = [(leaf, fa[leaf], fb[leaf], fb[leaf] - fa[leaf])
            for leaf in CPI_LEAVES
            if abs(fb[leaf] - fa[leaf]) >= threshold]
    rows.sort(key=lambda row: -abs(row[3]))
    return rows


def render_diff(a: CpiStack, b: CpiStack,
                threshold: float = 0.005) -> List[str]:
    """Human-readable diff of two stacks, ending in a one-line diagnosis."""
    lines = [f"CPI-stack diff: A={a.label()} (cycles={a.cycles})  "
             f"B={b.label()} (cycles={b.cycles})"]
    rows = diff_stacks(a, b, threshold)
    if not rows:
        lines.append(f"  no leaf moved by >= {threshold * 100:.1f}% "
                     f"of slots")
        return lines
    lines.append(f"  {'leaf':<34} {'A':>8} {'B':>8} {'delta':>9}")
    for leaf, frac_a, frac_b, delta in rows:
        lines.append(f"  {LEAF_LABELS[leaf]:<34} {frac_a * 100:>7.2f}% "
                     f"{frac_b * 100:>7.2f}% {delta * 100:>+8.2f}%")
    leaf, _, _, delta = rows[0]
    direction = "grew" if delta > 0 else "shrank"
    lines.append(f"  diagnosis: '{LEAF_LABELS[leaf]}' {direction} by "
                 f"{abs(delta) * 100:.2f}% of issue slots "
                 f"({LEAF_GROUP[leaf]} bound)")
    return lines


# -- APF coverage reconciliation ---------------------------------------------

def apf_coverage(stack: CpiStack, *, refill_saved: Mapping[int, int],
                 restores: int, pipeline_depth: int) -> Dict[str, float]:
    """Reconcile the ``apf-covered`` refill leaf against the refill-savings
    histogram (Fig. 10) and the theoretical full-depth collapse.

    ``refill_saved`` buckets: -1 = mispredict on a never-marked branch,
    0 = marked but buffer empty, >0 = re-fill cycles saved (capped at
    ``pipeline_depth``).
    """
    saved_cycles = sum(b * c for b, c in refill_saved.items() if b > 0)
    covered_events = sum(c for b, c in refill_saved.items() if b > 0)
    marked_empty = refill_saved.get(0, 0)
    unmarked = sum(c for b, c in refill_saved.items() if b < 0)
    theoretical = pipeline_depth * restores
    residual_covered = stack.leaf_cycles("bad_spec_refill_apf_covered")
    uncovered_cycles = stack.leaf_cycles("bad_spec_refill_apf_uncovered")
    non_h2p_cycles = stack.leaf_cycles("bad_spec_refill_non_h2p")
    return {
        "restores": float(restores),
        "covered_events": float(covered_events),
        "marked_empty_events": float(marked_empty),
        "unmarked_events": float(unmarked),
        "saved_cycles": float(saved_cycles),
        "theoretical_cycles": float(theoretical),
        "recovered_fraction": (saved_cycles / theoretical
                               if theoretical else 0.0),
        "residual_covered_refill_cycles": residual_covered,
        "uncovered_refill_cycles": uncovered_cycles,
        "non_h2p_refill_cycles": non_h2p_cycles,
    }


def render_coverage(coverage: Mapping[str, float],
                    refill_summary: Optional[Mapping[str, float]] = None) \
        -> List[str]:
    """Text report for :func:`apf_coverage`; ``refill_summary`` is the
    existing mean/p50/p90 summary of the same histogram, shown alongside
    so both views reconcile in one place."""
    lines = ["APF coverage (refill cycles recovered vs theoretical "
             "full-depth collapse):"]
    lines.append(f"  restores: {coverage['restores']:.0f} "
                 f"(covered mispredicts: {coverage['covered_events']:.0f}, "
                 f"marked-but-empty: {coverage['marked_empty_events']:.0f}, "
                 f"unmarked: {coverage['unmarked_events']:.0f})")
    lines.append(f"  refill cycles saved: {coverage['saved_cycles']:.0f} of "
                 f"{coverage['theoretical_cycles']:.0f} theoretical "
                 f"({coverage['recovered_fraction'] * 100:.1f}% of a "
                 f"full-depth collapse)")
    lines.append(f"  residual refill cycles still paid: "
                 f"covered={coverage['residual_covered_refill_cycles']:.1f} "
                 f"uncovered={coverage['uncovered_refill_cycles']:.1f} "
                 f"non-h2p={coverage['non_h2p_refill_cycles']:.1f}")
    if refill_summary:
        lines.append(f"  refill-savings histogram: "
                     f"mean={refill_summary.get('mean', 0.0):.2f} "
                     f"p50={refill_summary.get('p50', 0.0):.0f} "
                     f"p90={refill_summary.get('p90', 0.0):.0f} "
                     f"cycles/misprediction")
    return lines
