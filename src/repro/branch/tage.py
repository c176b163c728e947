"""TAGE-SC-L conditional branch predictor.

A faithful (storage-parameterised) implementation of the paper's baseline
predictor: a bimodal base table, ``num_tables`` partially-tagged tables with
geometrically increasing history lengths, a use-alt-on-newly-allocated
policy, a small GEHL-style statistical corrector, and a loop predictor.

The predictor exposes a three-level confidence signal derived from the
provider counter's saturation — exactly the signal APF uses to prioritise
low-confidence branches (paper Section V-D2).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.bitops import fold_xor, mask
from repro.common.config import TageConfig
from repro.common.rng import DeterministicRng

__all__ = ["TageSCL", "Prediction", "CONF_LOW", "CONF_MED", "CONF_HIGH"]

CONF_LOW = 0
CONF_MED = 1
CONF_HIGH = 2

# interned Prediction instances, keyed (taken, confidence, provider)
_PREDICTIONS: dict = {}


class Prediction:
    """Result of a conditional-branch direction prediction."""

    __slots__ = ("taken", "confidence", "provider")

    def __init__(self, taken: bool, confidence: int, provider: str) -> None:
        self.taken = taken
        self.confidence = confidence
        self.provider = provider

    @property
    def low_confidence(self) -> bool:
        return self.confidence == CONF_LOW

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Prediction(taken={self.taken}, conf={self.confidence}, "
                f"provider={self.provider!r})")


def _geometric_lengths(cfg: TageConfig) -> List[int]:
    if cfg.num_tables == 1:
        return [cfg.min_history]
    ratio = (cfg.max_history / cfg.min_history) ** (1.0 / (cfg.num_tables - 1))
    lengths = []
    for i in range(cfg.num_tables):
        lengths.append(max(1, int(round(cfg.min_history * ratio ** i))))
    # enforce strict monotonicity
    for i in range(1, len(lengths)):
        if lengths[i] <= lengths[i - 1]:
            lengths[i] = lengths[i - 1] + 1
    return lengths


class _LoopEntry:
    __slots__ = ("tag", "trip", "current", "confidence", "age")

    def __init__(self) -> None:
        self.tag = -1
        self.trip = 0
        self.current = 0
        self.confidence = 0
        self.age = 0


class TageSCL:
    """TAGE + Statistical Corrector + Loop predictor."""

    def __init__(self, config: TageConfig, seed: int = 12345) -> None:
        self.config = config
        self.history_lengths = _geometric_lengths(config)
        self._rng = DeterministicRng(seed)
        size = 1 << config.table_log_size
        n = config.num_tables
        self._tags = [[-1] * size for _ in range(n)]
        self._ctrs = [[0] * size for _ in range(n)]      # signed -4..3
        self._useful = [[0] * size for _ in range(n)]
        self._bimodal = [0] * (1 << config.bimodal_log_size)  # signed -2..1
        self._use_alt_on_na = 1 << (config.use_alt_on_na_bits - 1)
        self._ctr_max = (1 << (config.counter_bits - 1)) - 1
        self._ctr_min = -(1 << (config.counter_bits - 1))
        self._useful_max = (1 << config.useful_bits) - 1
        self._tick = 0
        # statistical corrector
        sc_size = 1 << config.sc_log_size
        self._sc_tables = [[0] * sc_size for _ in range(config.sc_num_tables)]
        self._sc_lengths = [0, 5, 11][:config.sc_num_tables]
        self._sc_max = (1 << (config.sc_counter_bits - 1)) - 1
        self._sc_min = -(1 << (config.sc_counter_bits - 1))
        self._sc_threshold = 6
        # loop predictor
        self._loop = [_LoopEntry() for _ in range(1 << config.loop_log_size)]
        # --- precomputed index/tag constants (hot path) ---
        bits = config.table_log_size
        self._idx_mask = (1 << bits) - 1
        self._pc_shift = 2 + bits
        self._tag_mask = (1 << config.tag_width) - 1
        self._bim_mask = (1 << config.bimodal_log_size) - 1
        self._loop_mask = (1 << config.loop_log_size) - 1
        self._sc_mask = (1 << config.sc_log_size) - 1
        # --- fold specs (see history.py) ---
        # Deduplicated (length, width) pairs, in first-use order; the
        # index arrays below map each per-table need (index fold, two tag
        # folds, SC fold, path fold) to its position in the fold-value
        # tuples every lookup reads. A SpeculativeHistory attached via
        # fold_specs() maintains those tuples per push; predict()/update()
        # recompute them for a caller that passes none.
        ghr_specs: dict = {}
        path_specs: dict = {}

        def _at(specs: dict, length: int, width: int) -> int:
            return specs.setdefault((length, width), len(specs))

        log = config.table_log_size
        tag_w = config.tag_width
        lengths = self.history_lengths
        self._gf_idx = [_at(ghr_specs, ln, log) for ln in lengths]
        self._gf_tag_a = [_at(ghr_specs, ln, tag_w) for ln in lengths]
        self._gf_tag_b = [_at(ghr_specs, ln, tag_w - 1) for ln in lengths]
        self._gf_sc = [_at(ghr_specs, ln, config.sc_log_size) if ln > 0
                       else -1 for ln in self._sc_lengths]
        self._pf_idx = [_at(path_specs, 2 * min(ln, 16), log)
                        for ln in lengths]
        self._ghr_specs = tuple(ghr_specs)
        self._path_specs = tuple(path_specs)
        # longest-history-first walk order with all per-table fold
        # positions pre-joined, so _lookup unpacks one tuple per table
        self._fold_rows = tuple(
            (t, self._gf_idx[t], self._pf_idx[t],
             self._gf_tag_a[t], self._gf_tag_b[t])
            for t in range(n - 1, -1, -1))

    def fold_specs(self):
        """(ghr specs, path specs) for ``SpeculativeHistory.attach_folds``."""
        return self._ghr_specs, self._path_specs

    def _fold_values(self, ghr: int, path: int):
        """The ``(ghr_fold_values, path_fold_values)`` pair recomputed from
        the registers: bit-identical to what a history attached with
        :meth:`fold_specs` maintains for the same ``ghr``/``path``."""
        return (tuple(fold_xor(ghr, length, width)
                      for length, width in self._ghr_specs),
                tuple(fold_xor(path, length, width)
                      for length, width in self._path_specs))

    # -- storage accounting --------------------------------------------------

    def storage_bits(self) -> int:
        cfg = self.config
        per_entry = cfg.tag_width + cfg.counter_bits + cfg.useful_bits
        bits = cfg.num_tables * (1 << cfg.table_log_size) * per_entry
        bits += (1 << cfg.bimodal_log_size) * 2
        if cfg.enable_sc:
            bits += cfg.sc_num_tables * (1 << cfg.sc_log_size) * cfg.sc_counter_bits
        if cfg.enable_loop_predictor:
            bits += (1 << cfg.loop_log_size) * 40
        return bits

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> dict:
        """Deep copy of all mutable predictor state (sampling checkpoints)."""
        return {
            "tags": [list(t) for t in self._tags],
            "ctrs": [list(t) for t in self._ctrs],
            "useful": [list(t) for t in self._useful],
            "bimodal": list(self._bimodal),
            "use_alt_on_na": self._use_alt_on_na,
            "tick": self._tick,
            "sc_tables": [list(t) for t in self._sc_tables],
            "loop": [(e.tag, e.trip, e.current, e.confidence, e.age)
                     for e in self._loop],
            "rng": self._rng.getstate(),
        }

    def restore(self, state: dict) -> None:
        self._tags = [list(t) for t in state["tags"]]
        self._ctrs = [list(t) for t in state["ctrs"]]
        self._useful = [list(t) for t in state["useful"]]
        self._bimodal = list(state["bimodal"])
        self._use_alt_on_na = state["use_alt_on_na"]
        self._tick = state["tick"]
        self._sc_tables = [list(t) for t in state["sc_tables"]]
        for entry, saved in zip(self._loop, state["loop"]):
            (entry.tag, entry.trip, entry.current,
             entry.confidence, entry.age) = saved
        self._rng.setstate(state["rng"])

    # -- index / tag hashing ---------------------------------------------------

    def _index(self, table: int, pc: int, folds) -> int:
        gv, pv = folds
        idx = ((pc >> 2) ^ (pc >> self._pc_shift) ^ gv[self._gf_idx[table]]
               ^ pv[self._pf_idx[table]] ^ table)
        return idx & self._idx_mask

    def _tag(self, table: int, pc: int, folds) -> int:
        gv = folds[0]
        tag_fold = gv[self._gf_tag_a[table]] ^ (gv[self._gf_tag_b[table]] << 1)
        return ((pc >> 2) ^ tag_fold) & self._tag_mask

    def _bimodal_index(self, pc: int) -> int:
        return (pc >> 2) & self._bim_mask

    # -- lookup ---------------------------------------------------------------

    def _lookup(self, pc: int, folds):
        """Return (provider_table, provider_idx, alt_taken) with
        provider_table == -1 for bimodal."""
        provider = -1
        provider_idx = -1
        alt_table = -1
        alt_idx = -1
        tags = self._tags
        idx_mask = self._idx_mask
        tag_mask = self._tag_mask
        pc2 = pc >> 2
        pc_mix = pc2 ^ (pc >> self._pc_shift)
        gv, pv = folds
        for table, gi, pi, ga, gb in self._fold_rows:
            idx = (pc_mix ^ gv[gi] ^ pv[pi] ^ table) & idx_mask
            if tags[table][idx] == (pc2 ^ gv[ga] ^ (gv[gb] << 1)) & tag_mask:
                if provider < 0:
                    provider, provider_idx = table, idx
                else:
                    alt_table, alt_idx = table, idx
                    break
        if alt_table >= 0:
            alt_taken = self._ctrs[alt_table][alt_idx] >= 0
        else:
            alt_taken = self._bimodal[pc2 & self._bim_mask] >= 0
        return provider, provider_idx, alt_taken

    def _tage_predict(self, pc: int, folds):
        """Return (taken, confidence, provider name, provider_table,
        provider_idx, alt_taken) of the TAGE part alone."""
        provider, pidx, alt_taken = self._lookup(pc, folds)
        if provider < 0:
            ctr = self._bimodal[self._bimodal_index(pc)]
            confidence = CONF_HIGH if ctr in (-2, 1) else CONF_MED
            return ctr >= 0, confidence, "bimodal", provider, pidx, alt_taken
        ctr = self._ctrs[provider][pidx]
        taken = ctr >= 0
        weak = ctr in (-1, 0)
        newly = weak and self._useful[provider][pidx] == 0
        if newly and self._use_alt_on_na >= (
                1 << (self.config.use_alt_on_na_bits - 1)):
            taken = alt_taken
        if ctr == self._ctr_max or ctr == self._ctr_min:
            confidence = CONF_HIGH
        elif ctr >= 1 or ctr <= -2:
            confidence = CONF_MED
        else:
            confidence = CONF_LOW
        return taken, confidence, "tage", provider, pidx, alt_taken

    # -- statistical corrector --------------------------------------------------

    def _sc_sum(self, pc: int, tage_taken: bool, folds) -> int:
        """TAGE's vote plus ``2*ctr+1`` over the SC tables."""
        gv = folds[0]
        pc2 = pc >> 2
        sc_mask = self._sc_mask
        sc_tables = self._sc_tables
        total = 8 if tage_taken else -8
        for table, at in enumerate(self._gf_sc):
            fold = gv[at] if at >= 0 else 0
            idx = (pc2 ^ fold ^ (table * 0x9E37)) & sc_mask
            total += 2 * sc_tables[table][idx] + 1
        return total

    def _sc_write(self, pc: int, taken: bool, folds) -> None:
        """Train the SC tables toward ``taken``."""
        gv = folds[0]
        pc2 = pc >> 2
        for table, at in enumerate(self._gf_sc):
            fold = gv[at] if at >= 0 else 0
            idx = (pc2 ^ fold ^ (table * 0x9E37)) & self._sc_mask
            row = self._sc_tables[table]
            ctr = row[idx]
            if taken and ctr < self._sc_max:
                row[idx] = ctr + 1
            elif not taken and ctr > self._sc_min:
                row[idx] = ctr - 1

    # -- loop predictor -----------------------------------------------------------

    def _loop_entry(self, pc: int) -> _LoopEntry:
        return self._loop[(pc >> 2) & self._loop_mask]

    def _loop_predict(self, pc: int) -> Optional[bool]:
        if not self.config.enable_loop_predictor:
            return None
        entry = self._loop_entry(pc)
        if (entry.tag == pc
                and entry.confidence >= self.config.loop_confidence_max
                and entry.trip > 0):
            return entry.current + 1 != entry.trip
        return None

    # -- public API ------------------------------------------------------------

    def predict(self, pc: int, ghr: int, path: int = 0,
                folds=None) -> Prediction:
        """Predict the direction of the conditional branch at ``pc``.

        ``folds`` is the attached history's ``(ghr_fold_values,
        path_fold_values)`` pair (see :meth:`fold_specs`). A caller
        without one passes none, and the folds are recomputed from
        ``ghr``/``path``: the same values, at the cost of ``fold_xor``
        per spec."""
        if folds is None:
            folds = self._fold_values(ghr, path)
        t = self._tage_predict(pc, folds)
        taken, confidence, provider = t[0], t[1], t[2]
        if self.config.enable_sc:
            total = self._sc_sum(pc, taken, folds)
            sc_taken = total >= 0
            if sc_taken != taken and abs(total) >= self._sc_threshold:
                taken = sc_taken
                confidence = CONF_LOW
                provider = "sc"
        loop_taken = self._loop_predict(pc)
        if loop_taken is not None and loop_taken != taken:
            taken = loop_taken
            confidence = CONF_HIGH
            provider = "loop"
        # Prediction carries no identity and is never mutated, so the
        # handful of distinct (taken, confidence, provider) combinations
        # are interned rather than re-allocated per branch
        key = (taken, confidence, provider)
        pred = _PREDICTIONS.get(key)
        if pred is None:
            pred = _PREDICTIONS[key] = Prediction(taken, confidence, provider)
        return pred

    def update(self, pc: int, ghr: int, taken: bool, path: int = 0,
               backward: bool = False, folds=None) -> None:
        """Commit-time update with the history captured at predict time.

        ``backward`` marks loop-shaped branches (target below the branch);
        only those train the loop predictor, which keeps its small table
        from being thrashed by ordinary forward branches. ``folds`` is the
        fold pair captured in the same checkpoint as ``ghr``/``path``,
        recomputed from them when not given (as in :meth:`predict`).
        """
        if folds is None:
            folds = self._fold_values(ghr, path)
        cfg = self.config
        (pred_taken, _conf, _prov, provider, pidx,
         alt_taken) = self._tage_predict(pc, folds)

        if cfg.enable_sc:
            total = self._sc_sum(pc, pred_taken, folds)
            sc_taken = total >= 0
            final_taken = pred_taken
            if sc_taken != pred_taken and abs(total) >= self._sc_threshold:
                final_taken = sc_taken
            if final_taken != taken or abs(total) < 3 * self._sc_threshold:
                self._sc_write(pc, taken, folds)

        if cfg.enable_loop_predictor and backward:
            self._loop_update(pc, taken)

        mispredicted = pred_taken != taken
        if provider >= 0:
            ctr = self._ctrs[provider][pidx]
            provider_taken = ctr >= 0
            weak = ctr in (-1, 0)
            newly = weak and self._useful[provider][pidx] == 0
            # use-alt-on-newly-allocated bookkeeping
            if newly and provider_taken != alt_taken:
                limit = mask(cfg.use_alt_on_na_bits)
                if alt_taken == taken and self._use_alt_on_na < limit:
                    self._use_alt_on_na += 1
                elif alt_taken != taken and self._use_alt_on_na > 0:
                    self._use_alt_on_na -= 1
            # usefulness: provider differs from alt and was correct
            if provider_taken != alt_taken:
                if provider_taken == taken:
                    if self._useful[provider][pidx] < self._useful_max:
                        self._useful[provider][pidx] += 1
                elif self._useful[provider][pidx] > 0:
                    self._useful[provider][pidx] -= 1
            # counter update
            if taken and ctr < self._ctr_max:
                self._ctrs[provider][pidx] = ctr + 1
            elif not taken and ctr > self._ctr_min:
                self._ctrs[provider][pidx] = ctr - 1
        else:
            idx = self._bimodal_index(pc)
            ctr = self._bimodal[idx]
            if taken and ctr < 1:
                self._bimodal[idx] = ctr + 1
            elif not taken and ctr > -2:
                self._bimodal[idx] = ctr - 1

        if mispredicted and provider < cfg.num_tables - 1:
            self._allocate(pc, taken, provider, folds)

    def _allocate(self, pc: int, taken: bool, provider: int, folds) -> None:
        """Allocate an entry in a table with longer history than provider."""
        cfg = self.config
        start = provider + 1
        candidates = []
        for table in range(start, cfg.num_tables):
            idx = self._index(table, pc, folds)
            if self._useful[table][idx] == 0:
                candidates.append((table, idx))
        if not candidates:
            # age the competition so future allocations can succeed
            for table in range(start, cfg.num_tables):
                idx = self._index(table, pc, folds)
                if self._useful[table][idx] > 0:
                    self._useful[table][idx] -= 1
            return
        # prefer shorter history, with some randomisation (as in TAGE)
        pick = 0
        if len(candidates) > 1 and self._rng.chance(0.33):
            pick = 1
        table, idx = candidates[pick]
        self._tags[table][idx] = self._tag(table, pc, folds)
        self._ctrs[table][idx] = 0 if taken else -1
        self._useful[table][idx] = 0
        # global useful reset tick
        self._tick += 1
        if self._tick >= (1 << 14):
            self._tick = 0
            for tbl in self._useful:
                for i, u in enumerate(tbl):
                    if u > 0:
                        tbl[i] = u - 1

    def _loop_update(self, pc: int, taken: bool) -> None:
        entry = self._loop_entry(pc)
        if entry.tag != pc:
            entry.age += 1
            if entry.age < 2:
                return
            entry.tag = pc
            entry.trip = 0
            entry.current = 0
            entry.confidence = 0
            entry.age = 0
            return
        if taken:
            entry.current += 1
            if entry.current > (1 << 14):  # runaway loop; give up
                entry.confidence = 0
                entry.current = 0
        else:
            observed = entry.current + 1
            if observed == entry.trip:
                if entry.confidence < self.config.loop_confidence_max:
                    entry.confidence += 1
            else:
                entry.trip = observed
                entry.confidence = 0
            entry.current = 0
