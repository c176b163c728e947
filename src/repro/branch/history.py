"""Speculative branch history registers.

The core owns one :class:`SpeculativeHistory` per fetch path (main pipeline
and APF pipeline). History is updated speculatively at predict time and
restored from a checkpoint on misprediction recovery; checkpoints are plain
tuples so the in-flight branch queue can hold one per branch cheaply.

Folded histories
----------------

TAGE indexes its tables with XOR folds of the (masked) history registers.
Recomputing a fold from scratch costs O(history length / fold width) per
table per lookup; the fold of a shift register is instead maintainable in
O(1) per push. For the chunked XOR fold (``fold_xor``: bit ``i`` of the
register contributes to fold bit ``i mod w``), shifting the register left
by ``k`` moves every contribution from ``i mod w`` to ``(i + k) mod w`` —
a rotate of the fold — after which the bits shifted out past the history
length must be XORed back out and the new in-bits XORed in:

``fold' = rot_k(fold) ^ (dropped bits at their rotated positions) ^ in``

This computes *bit-identical* values to ``fold_xor`` of the masked
register, so a predictor consuming maintained folds produces exactly the
same table indices (and hence the same simulation) as one recomputing
them. A predictor opts in by exposing ``fold_specs()`` (lists of
``(length, width)`` pairs for the direction and path registers); the core
attaches them with :meth:`SpeculativeHistory.attach_folds`.
"""

from __future__ import annotations

from repro.common.bitops import fold_xor, mask

__all__ = ["SpeculativeHistory"]

#: specialized subclasses keyed by (fold constants, register masks); one
#: per distinct predictor geometry, shared by every history that attaches it
_SPECIALIZED: dict = {}


def _specialized_class(gf_const, pf_const, ghr_mask, path_mask):
    """Subclass of :class:`SpeculativeHistory` whose ``push`` also
    maintains the folds, compiled with this fold-spec set unrolled and
    every constant baked in.

    The generated method applies the recurrence of the module docstring
    to ~20 fold registers as straight-line statements, and is installed
    by ``__class__`` reassignment — legal because the subclass adds no
    slots, so the instance layout is unchanged. It rebinds fresh fold
    tuples on every push (never mutates them): outstanding checkpoints
    hold the previous tuples and must keep their values."""
    key = (tuple(gf_const), tuple(pf_const), ghr_mask, path_mask)
    cls = _SPECIALIZED.get(key)
    if cls is not None:
        return cls
    lines = [
        "def push(self, taken, pc=0):",
        "    ghr = self.ghr",
        "    path = self.path",
        "    b = 1 if taken else 0",
        "    in2 = (pc >> 2) & 3",
        f"    self.ghr = ((ghr << 1) | b) & {hex(ghr_mask)}",
        f"    self.path = ((path << 2) | in2) & {hex(path_mask)}",
    ]
    ng = len(gf_const)
    npf = len(pf_const)
    if ng:
        lines.append("    " + ", ".join(f"g{i}" for i in range(ng))
                     + ("," if ng == 1 else "") + " = self._gf_vals")
    if npf:
        lines.append("    " + ", ".join(f"p{i}" for i in range(npf))
                     + ("," if npf == 1 else "") + " = self._pf_vals")
    gexprs = [
        f"((((g{i} << 1) | (g{i} >> {wm1})) & {wmask})"
        f" ^ (((ghr >> {top_s}) & 1) << {drop_s}) ^ b)"
        for i, (wm1, wmask, drop_s, top_s) in enumerate(gf_const)]
    pexprs = [
        f"((((p{i} << 2) | (p{i} >> {wm2})) & {wmask})"
        f" ^ (((path >> {t1}) & 1) << {d1})"
        f" ^ (((path >> {t2}) & 1) << {d2}) ^ in2)"
        for i, (wm2, wmask, d1, d2, t1, t2) in enumerate(pf_const)]
    lines.append("    self._gf_vals = gv = ("
                 + ", ".join(gexprs) + ("," if ng == 1 else "") + ")")
    lines.append("    self._pf_vals = pv = ("
                 + ", ".join(pexprs) + ("," if npf == 1 else "") + ")")
    lines.append("    self.folds = (gv, pv)")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<history-fold-push>", "exec"), namespace)
    cls = type("FoldedSpeculativeHistory", (SpeculativeHistory,),
               {"__slots__": (), "push": namespace["push"]})
    _SPECIALIZED[key] = cls
    return cls


class SpeculativeHistory:
    """Global (direction) history plus a short path history."""

    __slots__ = ("max_length", "path_length", "ghr", "path",
                 "_ghr_mask", "_path_mask", "folds",
                 "_gf_vals", "_pf_vals", "_gf_const", "_pf_const",
                 "_gf_specs", "_pf_specs")

    def __init__(self, max_length: int = 256, path_length: int = 16) -> None:
        self.max_length = max_length
        self.path_length = path_length
        self.ghr = 0
        self.path = 0
        self._ghr_mask = mask(max_length)
        self._path_mask = mask(2 * path_length)
        #: ``(ghr_fold_values, path_fold_values)`` once attached, else None.
        #: The fold-value tuples are immutable — every push rebinds them
        #: (and ``folds``), which makes :meth:`checkpoint` O(1): it hands
        #: out the current tuples instead of copying them.
        self.folds = None
        self._gf_vals: tuple = ()
        self._pf_vals: tuple = ()
        self._gf_const: list = []
        self._pf_const: list = []
        self._gf_specs: tuple = ()
        self._pf_specs: tuple = ()

    # -- folded histories ---------------------------------------------------

    def attach_folds(self, ghr_specs, path_specs) -> None:
        """Maintain XOR folds for the given ``(length, width)`` specs.

        The direction register shifts by 1 bit per push, the path register
        by 2 bits; the per-fold constants below bake the rotation width
        and the positions of the dropped top bits."""
        self._gf_specs = tuple(ghr_specs)
        self._pf_specs = tuple(path_specs)
        # (w-1, mask(w), drop position (L mod w), top bit (L-1))
        self._gf_const = [(w - 1, (1 << w) - 1, length % w, length - 1)
                          for (length, w) in self._gf_specs]
        # (w-2, mask(w), drops ((L+1) mod w, L mod w), top bits (L-1, L-2))
        self._pf_const = [(w - 2, (1 << w) - 1, (length + 1) % w, length % w,
                           length - 1, length - 2)
                          for (length, w) in self._pf_specs]
        self._gf_vals = tuple(fold_xor(self.ghr, length, w)
                              for (length, w) in self._gf_specs)
        self._pf_vals = tuple(fold_xor(self.path, length, w)
                              for (length, w) in self._pf_specs)
        self.folds = (self._gf_vals, self._pf_vals)
        if self._gf_const or self._pf_const:
            self.__class__ = _specialized_class(
                self._gf_const, self._pf_const,
                self._ghr_mask, self._path_mask)

    def adopt_folds(self, other: "SpeculativeHistory") -> None:
        """Share another history's fold specs (APF shadow construction).

        Values are copied as-of ``other`` now; callers normally
        :meth:`restore` a checkpoint right after, which overwrites them."""
        if other.folds is None:
            return
        self._gf_specs = other._gf_specs
        self._pf_specs = other._pf_specs
        self._gf_const = other._gf_const
        self._pf_const = other._pf_const
        # fold tuples are immutable, so sharing them is a safe copy
        self._gf_vals = other._gf_vals
        self._pf_vals = other._pf_vals
        self.folds = (self._gf_vals, self._pf_vals)
        if self._gf_const or self._pf_const:
            self.__class__ = _specialized_class(
                self._gf_const, self._pf_const,
                self._ghr_mask, self._path_mask)

    # -- speculative update -------------------------------------------------

    def push(self, taken: bool, pc: int = 0) -> None:
        """Shift in one branch outcome (and low PC bits into path history).

        Folds are maintained by the ``push`` that :meth:`attach_folds` and
        :meth:`adopt_folds` install, so this one shifts the registers only."""
        self.ghr = ((self.ghr << 1) | (1 if taken else 0)) & self._ghr_mask
        self.path = ((self.path << 2) | ((pc >> 2) & 3)) & self._path_mask

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self) -> tuple:
        if self.folds is None:
            return (self.ghr, self.path)
        # O(1): the fold tuples are immutable, so no copy is needed
        return (self.ghr, self.path, self._gf_vals, self._pf_vals)

    def refold(self) -> None:
        """Recompute the maintained folds from the current registers.

        Bit-identical to the incremental maintenance (both equal
        ``fold_xor`` of the masked register); used when the registers
        change without a fold-carrying checkpoint to restore from."""
        if self.folds is None:
            return
        self._gf_vals = tuple(fold_xor(self.ghr, length, w)
                              for (length, w) in self._gf_specs)
        self._pf_vals = tuple(fold_xor(self.path, length, w)
                              for (length, w) in self._pf_specs)
        self.folds = (self._gf_vals, self._pf_vals)

    def restore(self, snapshot: tuple) -> None:
        self.ghr = snapshot[0]
        self.path = snapshot[1]
        if self.folds is not None:
            if len(snapshot) > 2:
                self._gf_vals = snapshot[2]
                self._pf_vals = snapshot[3]
                self.folds = (snapshot[2], snapshot[3])
            else:
                # registers-only checkpoint restored into a folds-attached
                # history: recompute instead of silently keeping stale folds
                self.refold()
