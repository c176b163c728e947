"""Trace serialisation: save/load (program, dynamic trace) bundles.

Execution-driven simulators distribute workloads as trace files (ChampSim
traces, SimPoint checkpoints). This module provides the equivalent for our
uop ISA: a versioned binary bundle holding the static program image and a
dynamic trace as flat columns, so a workload is built and emulated once and
then re-run, shared between processes, or shipped to another machine. The
workload store (:func:`repro.workloads.profiles.load_workload`) keeps one
bundle per (workload, length) under the cache root.

A bundle is an uncompressed numpy ``.npz`` archive of plain numeric and
unicode arrays, read with ``allow_pickle=False``: loading one never runs
code, whoever wrote the file. Its members:

* ``version``; ``name`` and ``trace_name``; ``header`` = (entry_pc,
  code_base, data_base, data_end); ``array_names``/``array_bases``
* the code image, one row per uop: ``op`` (an index into ``op_names``),
  ``dest``, ``src1``, ``src2``, ``target``, and ``imm`` as its low 64 bits
  plus an ``imm_neg`` sign flag; labels are sparse (``label_index``,
  ``label_text``)
* the data image as :class:`Program` holds it: ``data_words`` holds one
  uint64 per word from data_base to data_end, and ``data_present``
  (``Program.data_present`` packed by ``numpy.packbits``) marks the
  words the image defines
* the trace columns ``uop_index``, ``taken``, ``next_pc``, ``mem_addr``
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.isa.opcodes import UOP_BYTES, Op
from repro.isa.uop import StaticUop
from repro.workloads.program import WORD_BYTES, Program
from repro.workloads.trace import DynamicTrace

__all__ = ["save_trace", "load_trace", "TraceBundleError",
           "TRACE_FORMAT_VERSION"]

#: 2: binary npz columns (1 was gzip-compressed JSON)
TRACE_FORMAT_VERSION = 2

_MASK64 = (1 << 64) - 1
_OPS = list(Op)
_OP_CODE = {op: code for code, op in enumerate(_OPS)}


class TraceBundleError(ValueError):
    """A trace bundle is unreadable, truncated, or malformed."""


# --------------------------------------------------------------------------
# Encoding
# --------------------------------------------------------------------------

def _program_columns(program: Program) -> Dict[str, np.ndarray]:
    uops = program.uops()
    imms = [u.imm for u in uops]
    if any(not -(1 << 64) <= imm <= _MASK64 for imm in imms):
        raise ValueError(f"{program.name}: an immediate does not fit "
                         f"in 64 bits plus a sign")
    labelled = [i for i, u in enumerate(uops) if u.label]
    names = list(program.arrays)
    return {
        "name": np.array(program.name),
        "header": np.array([program.entry_pc, program.code_base,
                            program.data_base, program.data_end],
                           dtype=np.int64),
        "array_names": np.array(names, dtype=str),
        "array_bases": np.array([program.arrays[n] for n in names],
                                dtype=np.int64),
        "op_names": np.array([op.name for op in _OPS]),
        "op": np.array([_OP_CODE[u.op] for u in uops], dtype=np.uint8),
        "dest": np.array([u.dest for u in uops], dtype=np.int8),
        "src1": np.array([u.src1 for u in uops], dtype=np.int8),
        "src2": np.array([u.src2 for u in uops], dtype=np.int8),
        "target": np.array([u.target for u in uops], dtype=np.int64),
        "imm": np.array([imm & _MASK64 for imm in imms], dtype=np.uint64),
        "imm_neg": np.array([imm < 0 for imm in imms], dtype=bool),
        "label_index": np.array(labelled, dtype=np.int32),
        "label_text": np.array([uops[i].label for i in labelled],
                               dtype=str),
        "data_words": program.data_words,
        "data_present": np.packbits(program.data_present),
    }


def _trace_columns(trace: DynamicTrace,
                   program: Program) -> Dict[str, np.ndarray]:
    n = len(trace)
    pcs = np.fromiter((u.pc for u in trace.uops), dtype=np.int64, count=n)
    offsets = pcs - program.code_base
    if n and (offsets.min() < 0 or offsets.max() >= program.code_bytes
              or (offsets % UOP_BYTES).any()):
        raise ValueError(f"{trace.program_name}: the trace executes a uop "
                         f"outside the program image")
    return {
        "trace_name": np.array(trace.program_name),
        "uop_index": (offsets // UOP_BYTES).astype(np.int32),
        "taken": np.array(trace.taken, dtype=bool),
        "next_pc": np.fromiter(trace.next_pc, dtype=np.uint64, count=n),
        "mem_addr": np.fromiter(trace.mem_addr, dtype=np.uint64, count=n),
    }


def save_trace(path, program: Program, trace: DynamicTrace) -> None:
    """Atomically write a (program, trace) bundle to ``path``.

    The bundle is written to a temp file in the same directory and moved
    into place with ``os.replace``, so an interrupted save can never
    leave a truncated bundle where a reader expects a complete one. The
    temp name carries the pid and thread, so concurrent writers of one
    bundle never share a temp file; the last completed write wins.
    Raises ``ValueError`` for a program the format cannot represent.
    """
    arrays = {"version": np.array(TRACE_FORMAT_VERSION, dtype=np.int64),
              **_program_columns(program),
              **_trace_columns(trace, program)}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with tmp.open("wb") as handle:
            np.savez(handle, allow_pickle=False, **arrays)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


# --------------------------------------------------------------------------
# Decoding
# --------------------------------------------------------------------------

class _Columns:
    """Typed, shape-checked access to a bundle's arrays."""

    def __init__(self, path: Path, arrays: Dict[str, np.ndarray]) -> None:
        self.path = path
        self.arrays = arrays

    def malformed(self, why: str) -> TraceBundleError:
        return TraceBundleError(f"malformed trace bundle {self.path}: {why}")

    def get(self, key: str, kind: str, ndim: int = 1,
            length: Optional[int] = None) -> np.ndarray:
        """``key`` as an array of dtype kind ``kind`` (``"i"``, ``"u"``,
        ``"b"`` or ``"U"``) with ``ndim`` dimensions and ``length``
        rows."""
        array = self.arrays.get(key)
        if array is None:
            raise self.malformed(f"missing {key!r}")
        if array.dtype.kind != kind or array.ndim != ndim:
            raise self.malformed(f"{key!r} is {array.dtype}, "
                                 f"{array.ndim}-d")
        if length is not None and len(array) != length:
            raise self.malformed(f"{key!r} has {len(array)} rows, "
                                 f"expected {length}")
        return array

    def text(self, key: str) -> str:
        return str(self.get(key, "U", ndim=0))

    def indices(self, key: str, kind: str, bound: int) -> list:
        """``key`` as a list of ints in ``[0, bound)``."""
        array = self.get(key, kind)
        if len(array) and (array.min() < 0 or array.max() >= bound):
            raise self.malformed(f"{key!r} indexes outside [0, {bound})")
        return array.tolist()


def _read(path: Path) -> Dict[str, np.ndarray]:
    # Any failure to parse the file is a damaged bundle, which the store
    # must survive (rebuild and overwrite) rather than fail the job on.
    # zipfile, zlib and numpy's npy header parser raise many unrelated
    # types here (a damaged header once surfaced as tokenize.TokenError),
    # so the catch is broad; the cause stays chained for the traceback.
    # The file is opened here, not by np.load, so that it is closed even
    # when np.load fails on it.
    try:
        with open(path, "rb") as handle:
            archive = np.load(handle, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise TraceBundleError(f"malformed trace bundle {path}: "
                                       f"not an npz archive")
            with archive:
                return {key: archive[key] for key in archive.files}
    except (FileNotFoundError, TraceBundleError):
        raise
    except Exception as exc:
        raise TraceBundleError(
            f"unreadable or truncated trace bundle {path}: {exc}") from exc


def _decode_program(cols: _Columns) -> Program:
    header = cols.get("header", "i", length=4).tolist()
    entry_pc, code_base, data_base, data_end = header
    try:
        ops = [Op[name] for name in cols.get("op_names", "U").tolist()]
    except KeyError as exc:
        raise cols.malformed(f"unknown opcode {exc}") from exc
    op = cols.indices("op", "u", len(ops))
    n = len(op)
    dest = cols.get("dest", "i", length=n).tolist()
    src1 = cols.get("src1", "i", length=n).tolist()
    src2 = cols.get("src2", "i", length=n).tolist()
    target = cols.get("target", "i", length=n).tolist()
    imm = [value - (1 << 64) if negative else value
           for value, negative in zip(
               cols.get("imm", "u", length=n).tolist(),
               cols.get("imm_neg", "b", length=n).tolist())]
    labels = [""] * n
    label_text = cols.get("label_text", "U").tolist()
    label_index = cols.indices("label_index", "i", n)
    if len(label_index) != len(label_text):
        raise cols.malformed("label_index and label_text differ in length")
    for index, text in zip(label_index, label_text):
        labels[index] = text
    pcs = range(code_base, code_base + n * UOP_BYTES, UOP_BYTES)
    uops = [StaticUop(*row) for row in zip(
        pcs, [ops[code] for code in op], dest, src1, src2, imm, target,
        labels)]

    nwords, partial = divmod(data_end - data_base, WORD_BYTES)
    if nwords < 1 or partial:
        raise cols.malformed("its data image is not a whole number of "
                             "words")
    words = cols.get("data_words", "u", length=nwords)
    present = cols.get("data_present", "u", length=-(-nwords // 8))
    if words.dtype != np.uint64 or present.dtype != np.uint8:
        raise cols.malformed(f"its data image is {words.dtype} words with "
                             f"{present.dtype} presence bits")

    names = cols.get("array_names", "U").tolist()
    bases = cols.get("array_bases", "i", length=len(names)).tolist()
    return Program(uops, entry_pc, words,
                   np.unpackbits(present, count=nwords).view(bool),
                   name=cols.text("name"), data_base=data_base,
                   arrays=dict(zip(names, bases)))


def load_trace(path, program: Optional[Program] = None
               ) -> Tuple[Program, DynamicTrace]:
    """Read a bundle written by :func:`save_trace`.

    With ``program`` (the same workload's image, already in memory) the
    trace is bound to its uops and the bundle's code image is not
    decoded. Raises :class:`TraceBundleError` (a ``ValueError``) on
    truncated, non-npz, wrong-version, or malformed bundles, and
    ``FileNotFoundError`` when there is no file.
    """
    path = Path(path)
    cols = _Columns(path, _read(path))
    version = cols.arrays.get("version")
    if version is None or version.shape != () \
            or version.dtype.kind != "i" \
            or int(version) != TRACE_FORMAT_VERSION:
        raise TraceBundleError(
            f"unsupported trace format version "
            f"{None if version is None else version.tolist()!r} in {path}")
    if program is None:
        program = _decode_program(cols)
    elif (program.name != cols.text("name")
          or len(program) != len(cols.get("op", "u"))):
        raise cols.malformed(f"its code image is not {program.name}'s")
    code = program.uops()
    index = cols.indices("uop_index", "i", len(code))
    n = len(index)
    trace = DynamicTrace.from_columns(
        cols.text("trace_name"), list(map(code.__getitem__, index)),
        cols.get("taken", "b", length=n).tolist(),
        cols.get("next_pc", "u", length=n).tolist(),
        cols.get("mem_addr", "u", length=n).tolist())
    return program, trace
