"""Synthetic control-flow workload generator (SPEC CPU2017int substitute).

Programs are built from an outer loop that calls a set of *segment*
functions; each segment runs an inner loop whose body mixes ALU chains,
loads/stores over a configurable working set, and conditional branches of
four predictability classes:

``periodic``
    taken every k-th iteration — fully history-predictable, TAGE learns it.
``biased``
    data-dependent with a strongly skewed taken probability — mostly
    predictable, occasional mispredicts.
``h2p``
    data-dependent on pseudo-random values with an intermediate taken
    probability — genuinely hard to predict; these drive the branch MPKI.
``correlated``
    re-tests a condition computed by an earlier branch in the same
    iteration — predictable *through history* only.

Because conditions come from real data flowing through real instructions,
the TAGE predictor faces the same structure it faces on SPEC: loops it can
lock onto, correlations it can exploit, and noise it cannot. Profiles
(:mod:`repro.workloads.profiles`) choose the mix to match each benchmark's
published branch MPKI and footprint characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.common.rng import DeterministicRng
from repro.isa.opcodes import Op
from repro.workloads.program import Program, ProgramBuilder

__all__ = ["WorkloadProfile", "build_synthetic_program"]

# Register roles (see module docstring in program.py for the ISA).
R_LCG = 1          # pseudo-random state (bank 0)
R_LCG_MUL = 2      # LCG multiplier constant
R_LCG_ADD = 3      # LCG increment constant
#: four independent LCG states so condition generation is not one long
#: serial MUL chain through the whole program
R_LCG_STATES = (1, 17, 18, 19)
R_RANDBASE = 4     # base of the random-data array
R_WORKBASE = 5     # base of the working-set array
R_OUTER = 6        # outer loop counter
R_INNER = 7        # inner loop counter
R_VAL = 8          # last loaded value
R_COND = 9         # condition temporary
R_THRESH = 10      # per-segment threshold for biased branches
R_THRESH2 = 11     # threshold for h2p branches
R_IDX = 12         # memory index temporary
R_ADDR = 13        # effective address temporary
R_PERIOD = 14      # periodic branch counter
R_ITARGET = 15     # indirect jump target
R_ACC = 16         # accumulator carried across blocks
R_CHAIN0 = 20      # start of ALU chain temporaries (r20..r27)
NUM_CHAIN_REGS = 8

_MASK64 = (1 << 64) - 1
_LCG_MUL = 6364136223846793005
_LCG_ADD = 1442695040888963407


@dataclass(frozen=True)
class WorkloadProfile:
    """Knobs for one synthetic benchmark."""

    name: str
    seed: int = 1
    num_segments: int = 8              # distinct functions (code footprint)
    blocks_per_segment: int = 6        # basic blocks per inner-loop body
    ops_per_block: int = 6             # ALU ops per block (dependency chain)
    inner_trip_min: int = 8
    inner_trip_max: int = 40
    branch_mix: Dict[str, float] = field(default_factory=lambda: {
        "periodic": 0.3, "biased": 0.4, "h2p": 0.2, "correlated": 0.1})
    biased_taken_prob: float = 0.92
    h2p_taken_prob: float = 0.45
    load_prob: float = 0.4             # chance a block contains a load
    store_prob: float = 0.1
    working_set_words: int = 1 << 12   # D-side footprint (8B words)
    random_data_words: int = 1 << 12   # entropy pool for conditions
    h2p_from_memory: bool = False      # H2P conditions read the working set
    else_blocks: bool = True           # if/else hammocks vs if/then
    then_length: int = 4               # uops in the taken-side block
    indirect_cases: int = 0            # >0 adds a switch via IJUMP
    code_alignment: int = 0            # align segment entries (bank effects)


def _emit_lcg_step(b: ProgramBuilder, state_reg: int = R_LCG) -> None:
    """Advance one in-program pseudo-random state: s = s * A + C."""
    b.alu(Op.MUL, state_reg, state_reg, R_LCG_MUL)
    b.alu(Op.ADD, state_reg, state_reg, R_LCG_ADD)


def _emit_random_index(b: ProgramBuilder, num_words: int,
                       state_reg: int = R_LCG) -> None:
    """R_IDX <- byte offset of a pseudo-random word in [0, num_words)."""
    if num_words & (num_words - 1):
        raise ValueError("array sizes must be powers of two")
    _emit_lcg_step(b, state_reg)
    b.emit(Op.SHRI, dest=R_IDX, src1=state_reg, imm=17)
    # mask directly to a word-aligned byte offset < num_words * 8
    b.emit(Op.ANDI, dest=R_IDX, src1=R_IDX, imm=(num_words - 1) << 3)


def _emit_alu_chain(b: ProgramBuilder, rng: DeterministicRng,
                    length: int, ilp: int = 4) -> None:
    """ALU work with ~``ilp``-wide parallelism.

    ``ilp`` independent accumulator chains are interleaved; each op extends
    one chain (serial within a chain, parallel across chains), which gives
    the backend realistic instruction-level parallelism instead of one long
    serial dependence chain.
    """
    ops = (Op.ADD, Op.XOR, Op.SUB, Op.OR, Op.AND)
    ilp = max(1, min(ilp, NUM_CHAIN_REGS))
    for i in range(length):
        chain = R_CHAIN0 + (i % ilp)
        other = R_CHAIN0 + ((i + ilp) % NUM_CHAIN_REGS)
        b.alu(rng.choice(ops), chain, chain, other)
    b.alu(Op.ADD, R_ACC, R_ACC, R_CHAIN0)


def _threshold_for(prob: float) -> int:
    """Unsigned 64-bit threshold t with P(value < t) == prob."""
    return int(prob * float(1 << 64)) & _MASK64


class _SegmentEmitter:
    """Emits one segment function for a profile."""

    def __init__(self, builder: ProgramBuilder, profile: WorkloadProfile,
                 rng: DeterministicRng, index: int) -> None:
        self.b = builder
        self.p = profile
        self.rng = rng
        self.index = index
        self.mix_items = sorted(profile.branch_mix.items())
        self.mix_total = sum(w for _, w in self.mix_items) or 1.0
        self._lcg_rotor = index  # stagger chains across segments

    def _lcg_reg(self) -> int:
        reg = R_LCG_STATES[self._lcg_rotor % len(R_LCG_STATES)]
        self._lcg_rotor += 1
        return reg

    def _pick_branch_kind(self) -> str:
        roll = self.rng.random() * self.mix_total
        acc = 0.0
        for kind, weight in self.mix_items:
            acc += weight
            if roll < acc:
                return kind
        return self.mix_items[-1][0]

    def emit(self) -> str:
        b, p = self.b, self.p
        if p.code_alignment:
            b.align(p.code_alignment)
        entry = b.label(f"seg{self.index}")
        trip = self.rng.randint(p.inner_trip_min, p.inner_trip_max)
        b.movi(R_INNER, trip)
        loop_head = b.label(f"seg{self.index}_loop")
        for block in range(p.blocks_per_segment):
            self._emit_block(block)
        if p.indirect_cases:
            self._emit_switch()
        b.emit(Op.ADDI, dest=R_INNER, src1=R_INNER, imm=-1)
        b.branch(Op.BNEZ, loop_head, src1=R_INNER,
                 label=f"seg{self.index}_back")
        b.ret()
        return entry

    def _emit_block(self, block: int) -> None:
        b, p, rng = self.b, self.p, self.rng
        _emit_alu_chain(b, rng, p.ops_per_block)
        if rng.chance(p.load_prob):
            _emit_random_index(b, p.working_set_words, self._lcg_reg())
            b.alu(Op.ADD, R_ADDR, R_WORKBASE, R_IDX)
            b.load(R_VAL, R_ADDR)
            b.alu(Op.XOR, R_ACC, R_ACC, R_VAL)
        if rng.chance(p.store_prob):
            _emit_random_index(b, p.working_set_words, self._lcg_reg())
            b.alu(Op.ADD, R_ADDR, R_WORKBASE, R_IDX)
            b.store(R_ACC, R_ADDR)
        self._emit_conditional(block)

    def _emit_conditional(self, block: int) -> None:
        b, p, rng = self.b, self.p, self.rng
        kind = self._pick_branch_kind()
        skip = b.fresh_label(f"seg{self.index}_b{block}_then")
        join = b.fresh_label(f"seg{self.index}_b{block}_join")

        if kind == "periodic":
            # function of the inner loop counter: short, history-learnable
            period_mask = 1
            b.emit(Op.ANDI, dest=R_COND, src1=R_INNER, imm=period_mask)
            b.branch(Op.BEQZ, skip, src1=R_COND, label=f"periodic{block}")
        elif kind == "correlated":
            # Re-test the condition register set by the previous data branch.
            b.branch(Op.BNEZ, skip, src1=R_COND, label=f"correlated{block}")
        else:
            if kind == "h2p":
                prob, thresh_reg = p.h2p_taken_prob, R_THRESH2
            else:
                prob, thresh_reg = p.biased_taken_prob, R_THRESH
            del prob  # probability is realised via the threshold registers
            state = self._lcg_reg()
            if p.h2p_from_memory and kind == "h2p":
                _emit_random_index(b, p.random_data_words, state)
                b.alu(Op.ADD, R_ADDR, R_RANDBASE, R_IDX)
                b.load(R_VAL, R_ADDR)
            else:
                _emit_lcg_step(b, state)
                b.emit(Op.ADDI, dest=R_VAL, src1=state, imm=0)
            b.alu(Op.CMPLT, R_COND, R_VAL, thresh_reg)
            b.branch(Op.BNEZ, skip, src1=R_COND, label=f"{kind}{block}")

        # not-taken side (else)
        if p.else_blocks:
            _emit_alu_chain(b, rng, max(2, p.then_length // 2))
        b.jump(join)
        b.label(skip)
        _emit_alu_chain(b, rng, p.then_length)
        b.label(join)

    def _emit_switch(self) -> None:
        """A small computed-goto switch exercising the indirect predictor."""
        b, p, rng = self.b, self.p, self.rng
        done = b.fresh_label(f"seg{self.index}_sw_done")
        dispatch = b.fresh_label(f"seg{self.index}_sw_dispatch")
        b.jump(dispatch)
        case_pcs: List[int] = []
        for case in range(p.indirect_cases):
            case_pcs.append(b.next_pc)
            _emit_alu_chain(b, rng, 3)
            b.jump(done)
        table = b.alloc_array(
            f"switch_table_{self.index}_{b.next_pc}", len(case_pcs),
            values=case_pcs)
        b.label(dispatch)
        state = self._lcg_reg()
        _emit_lcg_step(b, state)
        b.emit(Op.SHRI, dest=R_IDX, src1=state, imm=23)
        # mask to the largest power of two <= number of cases so the index
        # is always in range (keeps the guard branch fully predictable)
        usable = 1 << (p.indirect_cases.bit_length() - 1)
        b.emit(Op.ANDI, dest=R_IDX, src1=R_IDX, imm=usable - 1)
        # byte offset = idx * 8
        b.movi(R_VAL, 3)
        b.emit(Op.SHL, dest=R_IDX, src1=R_IDX, src2=R_VAL)
        b.movi(R_ADDR, table)
        b.alu(Op.ADD, R_ADDR, R_ADDR, R_IDX)
        b.load(R_ITARGET, R_ADDR)
        b.emit(Op.IJUMP, src1=R_ITARGET)
        b.label(done)


def build_synthetic_program(profile: WorkloadProfile) -> Program:
    """Build the full program for a profile."""
    rng = DeterministicRng(profile.seed)
    b = ProgramBuilder(name=profile.name)

    b.alloc_array("random_data", profile.random_data_words,
                  values=_scramble_words(profile.seed,
                                         profile.random_data_words))
    b.alloc_array("working_set", profile.working_set_words,
                  values=_scramble_words(profile.seed ^ 0xABCD,
                                         profile.working_set_words))

    entry = b.label("entry")
    for slot, reg in enumerate(R_LCG_STATES):
        b.movi(reg, ((profile.seed + slot * 7919) * 2654435761) & _MASK64 | 1)
    b.movi(R_LCG_MUL, _LCG_MUL)
    b.movi(R_LCG_ADD, _LCG_ADD)
    b.movi(R_RANDBASE, b.array("random_data"))
    b.movi(R_WORKBASE, b.array("working_set"))
    b.movi(R_THRESH, _threshold_for(profile.biased_taken_prob))
    b.movi(R_THRESH2, _threshold_for(profile.h2p_taken_prob))
    b.movi(R_PERIOD, 0)
    b.movi(R_ACC, profile.seed & _MASK64)

    segment_labels = []
    jump_over = b.fresh_label("main_loop_entry")
    b.jump(jump_over)
    for index in range(profile.num_segments):
        emitter = _SegmentEmitter(b, profile, rng.fork(index + 1), index)
        segment_labels.append(emitter.emit())

    b.label(jump_over)
    outer = b.label("outer_loop")
    for seg_label in segment_labels:
        b.call(seg_label)
    b.jump(outer)   # run forever; the emulator bounds instruction count
    del entry
    return b.finalize(entry_label="entry")


def _scramble(seed: int, index: int) -> int:
    """Deterministic data-image initialiser: word ``index`` of the
    sequence for ``seed``. :func:`_scramble_words` computes the same
    words for a whole array at once."""
    z = ((index + 1) * 0x9E3779B97F4A7C15 ^ seed * 0xBF58476D1CE4E5B9)
    z &= _MASK64
    z = ((z ^ (z >> 29)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 32)


def _scramble_words(seed: int, num_words: int) -> np.ndarray:
    """``[_scramble(seed, i) for i in range(num_words)]`` as a uint64
    array, computed in place: uint64 arithmetic wraps modulo 2**64
    exactly as the scalar form's ``& _MASK64`` does."""
    z = np.arange(1, num_words + 1, dtype=np.uint64)
    z *= 0x9E3779B97F4A7C15
    z ^= (seed * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 29
    z *= 0x94D049BB133111EB
    z ^= z >> 32
    return z
