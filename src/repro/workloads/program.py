"""Static program image and an assembler-style builder.

A :class:`Program` is the static code image (PC -> uop) plus an initial data
image, held dense: one uint64 per 8-byte word and a presence flag per word.
The timing frontend fetches from the image on both the predicted and
the alternate/wrong path, which is what makes wrong-path and alternate-path
fetch faithful: the bytes that would sit in the I-cache really exist.

:class:`ProgramBuilder` provides labels, forward references, loops, and data
allocation so workload generators and the graph kernels read like assembly
listings instead of raw uop lists.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.isa.opcodes import NUM_ARCH_REGS, UOP_BYTES, Op
from repro.isa.uop import StaticUop

__all__ = ["Program", "ProgramBuilder", "CODE_BASE", "DATA_BASE"]

CODE_BASE = 0x0040_0000
DATA_BASE = 0x1000_0000
WORD_BYTES = 8


class Program:
    """Immutable static image: code, initial data, and an entry point.

    The data image covers the words from ``data_base`` to ``data_end``
    densely: ``data_words[i]`` is the initial value of the word at
    ``data_base + 8 * i``, and ``data_present[i]`` says whether the image
    defines that word at all (the emulator reads an absent word as a
    hash of its address). Both are read-only numpy arrays (uint64 and
    bool) that the program owns from here on; a program loaded from a
    trace bundle holds the bundle's own word array. The timing core never
    reads the data image, only its bounds.
    """

    def __init__(self, uops: List[StaticUop], entry_pc: int,
                 data_words: np.ndarray, data_present: np.ndarray,
                 name: str = "program",
                 data_base: int = DATA_BASE,
                 arrays: Optional[Dict[str, int]] = None) -> None:
        self.name = name
        self.entry_pc = entry_pc
        self.code_base = uops[0].pc if uops else CODE_BASE
        self._uops = uops
        words = np.asarray(data_words, dtype=np.uint64)
        present = np.asarray(data_present, dtype=bool)
        if words.ndim != 1 or not len(words) \
                or present.shape != words.shape:
            raise ValueError(f"{name}: the data image needs at least one "
                             f"word and one presence flag per word")
        words.flags.writeable = False
        present.flags.writeable = False
        self.data_words = words
        self.data_present = present
        self.data_base = data_base
        self.data_end = data_base + len(words) * WORD_BYTES
        self.arrays: Dict[str, int] = dict(arrays or {})
        self._nonbranch_runs: Optional[List[int]] = None
        for index, uop in enumerate(uops):
            expected = self.code_base + index * UOP_BYTES
            if uop.pc != expected:
                raise ValueError(
                    f"non-contiguous code image at {uop.pc:#x} "
                    f"(expected {expected:#x})")

    def __len__(self) -> int:
        return len(self._uops)

    @property
    def code_bytes(self) -> int:
        return len(self._uops) * UOP_BYTES

    def uop_at(self, pc: int) -> Optional[StaticUop]:
        """Return the uop at ``pc`` or None if outside the image."""
        offset = pc - self.code_base
        if offset < 0 or offset % UOP_BYTES:
            return None
        index = offset // UOP_BYTES
        if index >= len(self._uops):
            return None
        return self._uops[index]

    def nonbranch_runs(self) -> List[int]:
        """``run[i]`` = number of consecutive uops starting at index ``i``
        that are neither branches nor HALT — the uops a fetch engine can
        consume without any control-flow decision. Includes a
        ``run[len(self)] == 0`` sentinel. Computed once and cached (the
        image is immutable); the block-grain frontend fast path indexes it
        to size straight-line fetch batches in O(1).
        """
        runs = self._nonbranch_runs
        if runs is None:
            uops = self._uops
            n = len(uops)
            runs = [0] * (n + 1)
            halt = Op.HALT
            for i in range(n - 1, -1, -1):
                su = uops[i]
                if not su.is_branch and su.op is not halt:
                    runs[i] = runs[i + 1] + 1
            self._nonbranch_runs = runs
        return runs

    def uops(self) -> Sequence[StaticUop]:
        return self._uops


class ProgramBuilder:
    """Sequentially emits uops, resolving label references at finalize."""

    def __init__(self, name: str = "program", code_base: int = CODE_BASE,
                 data_base: int = DATA_BASE) -> None:
        self.name = name
        self.code_base = code_base
        self.data_base = data_base
        self._uops: List[StaticUop] = []
        self._labels: Dict[str, int] = {}
        self._fixups: List[tuple] = []       # (uop_index, label)
        #: (first word index, words) of each initialised array
        self._data: List[Tuple[int, np.ndarray]] = []
        self._data_cursor = data_base
        self._arrays: Dict[str, int] = {}
        self._label_counter = 0

    # -- code emission -----------------------------------------------------

    @property
    def next_pc(self) -> int:
        return self.code_base + len(self._uops) * UOP_BYTES

    def fresh_label(self, stem: str = "L") -> str:
        self._label_counter += 1
        return f"{stem}_{self._label_counter}"

    def label(self, name: Optional[str] = None) -> str:
        """Bind ``name`` (or a fresh label) to the next PC."""
        if name is None:
            name = self.fresh_label()
        if name in self._labels:
            raise ValueError(f"label {name!r} defined twice")
        self._labels[name] = self.next_pc
        return name

    def emit(self, op: Op, dest: int = -1, src1: int = -1, src2: int = -1,
             imm: int = 0, target_label: str = "", label: str = "") -> StaticUop:
        for reg in (dest, src1, src2):
            if reg >= NUM_ARCH_REGS:
                raise ValueError(f"register r{reg} out of range")
        uop = StaticUop(self.next_pc, op, dest=dest, src1=src1, src2=src2,
                        imm=imm, label=label)
        if target_label:
            self._fixups.append((len(self._uops), target_label))
        self._uops.append(uop)
        return uop

    # convenience emitters -------------------------------------------------

    def movi(self, dest: int, imm: int) -> None:
        self.emit(Op.MOVI, dest=dest, imm=imm)

    def alu(self, op: Op, dest: int, src1: int, src2: int = -1,
            imm: int = 0) -> None:
        self.emit(op, dest=dest, src1=src1, src2=src2, imm=imm)

    def load(self, dest: int, base: int, offset: int = 0) -> None:
        self.emit(Op.LOAD, dest=dest, src1=base, imm=offset)

    def store(self, value: int, base: int, offset: int = 0) -> None:
        self.emit(Op.STORE, src1=base, src2=value, imm=offset)

    def branch(self, op: Op, target: str, src1: int, src2: int = -1,
               label: str = "") -> None:
        self.emit(op, src1=src1, src2=src2, target_label=target, label=label)

    def jump(self, target: str) -> None:
        self.emit(Op.JUMP, target_label=target)

    def call(self, target: str) -> None:
        self.emit(Op.CALL, target_label=target)

    def ret(self) -> None:
        self.emit(Op.RET)

    def halt(self) -> None:
        self.emit(Op.HALT)

    def nop_pad(self, count: int) -> None:
        for _ in range(count):
            self.emit(Op.NOP)

    def align(self, byte_boundary: int) -> None:
        """Pad with NOPs until the next PC sits on ``byte_boundary``."""
        while self.next_pc % byte_boundary:
            self.emit(Op.NOP)

    # -- data segment ------------------------------------------------------

    def alloc_array(self, name: str, num_words: int,
                    values: Union[int, Sequence[int], np.ndarray,
                                  None] = None) -> int:
        """Reserve ``num_words`` 8-byte words; return the base byte address.

        ``values`` initialises them: ``num_words`` words (a sequence or an
        integer array), or one int for every word. Each must fit in 64
        unsigned bits. Without ``values`` the words stay absent from the
        data image.
        """
        if name in self._arrays:
            raise ValueError(f"array {name!r} allocated twice")
        base = self._data_cursor
        self._data_cursor += num_words * WORD_BYTES
        if values is not None:
            try:
                words = np.asarray(values, dtype=np.uint64)
            except OverflowError as exc:
                raise ValueError(f"array {name!r}: a value does not fit in "
                                 f"64 unsigned bits") from exc
            if words.ndim == 0:
                words = np.full(num_words, words, dtype=np.uint64)
            elif words.shape != (num_words,):
                raise ValueError("values length mismatch")
            self._data.append(((base - self.data_base) // WORD_BYTES, words))
        self._arrays[name] = base
        return base

    def array(self, name: str) -> int:
        return self._arrays[name]

    # -- finalisation --------------------------------------------------------

    def finalize(self, entry_label: str = "") -> Program:
        """Resolve fixups and freeze the image: the data image becomes one
        dense word array (at least one word long) with a presence flag
        per word."""
        for index, label in self._fixups:
            if label not in self._labels:
                raise ValueError(f"undefined label {label!r}")
            self._uops[index].target = self._labels[label]
        entry = self._labels.get(entry_label, self.code_base)
        num_words = max(1, (self._data_cursor - self.data_base) // WORD_BYTES)
        words = np.zeros(num_words, dtype=np.uint64)
        present = np.zeros(num_words, dtype=bool)
        for first, values in self._data:
            words[first:first + len(values)] = values
            present[first:first + len(values)] = True
        return Program(self._uops, entry, words, present, name=self.name,
                       data_base=self.data_base, arrays=self._arrays)
