"""Benchmark profiles: SPEC CPU2017int substitutes + GAP kernels.

Each SPEC benchmark is a :class:`~repro.workloads.synthetic.WorkloadProfile`
calibrated so the baseline core reproduces the per-benchmark branch-MPKI
*ordering* of the paper's Fig. 2 (leela/deepsjeng/mcf high; perlbench/
xalancbmk/x264 low; exchange2 predictor-capacity-bound). Each GAP benchmark
is a real graph kernel (:mod:`repro.workloads.kernels`) on a synthetic
power-law or uniform graph.

:func:`load_workload` is the entry point simulations use. A workload's
program and trace depend only on (workload, length), so it keeps one
trace bundle (:mod:`repro.workloads.traceio`) per pair in the workload
store, ``<cache root>/workloads/``, and every process that simulates the
pair, forked runner and service workers included, shares one build and
emulation instead of redoing it.
"""

from __future__ import annotations

import hashlib
import importlib
import re
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple

from repro.common.cachedir import cache_root
from repro.isa.opcodes import Op
from repro.workloads.emulator import Emulator
from repro.workloads.graphs import power_law_graph, uniform_graph
from repro.workloads.kernels import KERNEL_BUILDERS
from repro.workloads.program import Program
from repro.workloads.synthetic import WorkloadProfile, build_synthetic_program
from repro.workloads.trace import DynamicTrace
from repro.workloads.traceio import (TRACE_FORMAT_VERSION, TraceBundleError,
                                     load_trace, save_trace)

__all__ = ["SPEC_NAMES", "GAP_NAMES", "ALL_NAMES", "build_workload",
           "workload_trace", "load_workload", "bundle_path",
           "generator_digest", "clear_trace_cache"]

SPEC_NAMES: List[str] = [
    "perlbench", "gcc", "mcf", "omnetpp", "xalancbmk",
    "x264", "deepsjeng", "leela", "exchange2", "xz",
]
GAP_NAMES: List[str] = ["bfs", "sssp", "pr", "cc", "bc", "tc"]
ALL_NAMES: List[str] = SPEC_NAMES + GAP_NAMES


SPEC_PROFILES: Dict[str, WorkloadProfile] = {
    # Interpreter: large code footprint, indirect dispatch, well-predicted.
    "perlbench": WorkloadProfile(
        name="perlbench", seed=101, num_segments=24, blocks_per_segment=5,
        ops_per_block=5,
        branch_mix={"periodic": 0.35, "biased": 0.5, "h2p": 0.02,
                    "correlated": 0.13},
        biased_taken_prob=0.985, h2p_taken_prob=0.4,
        load_prob=0.35, working_set_words=1 << 13, indirect_cases=12),
    # Compiler: big footprint, moderate MPKI, some indirect jumps.
    "gcc": WorkloadProfile(
        name="gcc", seed=102, num_segments=32, blocks_per_segment=6,
        ops_per_block=5,
        branch_mix={"periodic": 0.25, "biased": 0.45, "h2p": 0.1,
                    "correlated": 0.2},
        biased_taken_prob=0.97, h2p_taken_prob=0.3,
        load_prob=0.4, working_set_words=1 << 14, indirect_cases=8),
    # Pointer chasing, memory bound; mispredicts resolved by slow loads.
    "mcf": WorkloadProfile(
        name="mcf", seed=103, num_segments=6, blocks_per_segment=5,
        ops_per_block=4,
        branch_mix={"periodic": 0.2, "biased": 0.35, "h2p": 0.32,
                    "correlated": 0.13},
        biased_taken_prob=0.96, h2p_taken_prob=0.35, h2p_from_memory=True,
        load_prob=0.6, working_set_words=1 << 17,
        random_data_words=1 << 16),
    # Discrete event simulation: moderate MPKI.
    "omnetpp": WorkloadProfile(
        name="omnetpp", seed=104, num_segments=12, blocks_per_segment=6,
        ops_per_block=5,
        branch_mix={"periodic": 0.25, "biased": 0.4, "h2p": 0.2,
                    "correlated": 0.15},
        biased_taken_prob=0.97, h2p_taken_prob=0.3,
        load_prob=0.45, working_set_words=1 << 15),
    # XML processing: big footprint, highly biased branches, low MPKI.
    "xalancbmk": WorkloadProfile(
        name="xalancbmk", seed=105, num_segments=28, blocks_per_segment=5,
        ops_per_block=6,
        branch_mix={"periodic": 0.3, "biased": 0.55, "h2p": 0.03,
                    "correlated": 0.12},
        biased_taken_prob=0.985, h2p_taken_prob=0.4,
        load_prob=0.35, working_set_words=1 << 13),
    # Video encoding: high ILP, predictable control flow.
    "x264": WorkloadProfile(
        name="x264", seed=106, num_segments=8, blocks_per_segment=7,
        ops_per_block=9,
        branch_mix={"periodic": 0.45, "biased": 0.42, "h2p": 0.05,
                    "correlated": 0.08},
        biased_taken_prob=0.975, h2p_taken_prob=0.4,
        load_prob=0.35, working_set_words=1 << 13),
    # Game-tree search: data-dependent branches everywhere.
    "deepsjeng": WorkloadProfile(
        name="deepsjeng", seed=107, num_segments=10, blocks_per_segment=6,
        ops_per_block=4,
        branch_mix={"periodic": 0.15, "biased": 0.32, "h2p": 0.38,
                    "correlated": 0.15},
        biased_taken_prob=0.96, h2p_taken_prob=0.3,
        load_prob=0.4, working_set_words=1 << 14),
    # MCTS: the highest-MPKI SPEC benchmark.
    "leela": WorkloadProfile(
        name="leela", seed=108, num_segments=8, blocks_per_segment=6,
        ops_per_block=4,
        branch_mix={"periodic": 0.1, "biased": 0.3, "h2p": 0.45,
                    "correlated": 0.15},
        biased_taken_prob=0.96, h2p_taken_prob=0.3,
        load_prob=0.35, working_set_words=1 << 13),
    # Puzzle solver: dense, capacity-hungry branch working set; the paper's
    # TAGE-banking loser. Many distinct static branches, few truly random.
    "exchange2": WorkloadProfile(
        name="exchange2", seed=109, num_segments=40, blocks_per_segment=7,
        ops_per_block=3, inner_trip_min=6, inner_trip_max=16,
        branch_mix={"periodic": 0.4, "biased": 0.46, "h2p": 0.02,
                    "correlated": 0.12},
        biased_taken_prob=0.975, h2p_taken_prob=0.4,
        load_prob=0.2, working_set_words=1 << 12, then_length=2),
    # Compression: moderate everything.
    "xz": WorkloadProfile(
        name="xz", seed=110, num_segments=10, blocks_per_segment=6,
        ops_per_block=5,
        branch_mix={"periodic": 0.25, "biased": 0.42, "h2p": 0.18,
                    "correlated": 0.15},
        biased_taken_prob=0.97, h2p_taken_prob=0.3,
        load_prob=0.45, working_set_words=1 << 15),
}

# Graph parameters per GAP kernel (n must be a power of two).
_GAP_GRAPHS: Dict[str, Callable] = {
    "bfs": lambda: power_law_graph(1024, 20, seed=21),
    "sssp": lambda: power_law_graph(1024, 16, seed=22),
    "pr": lambda: uniform_graph(1024, 12, seed=23),
    "cc": lambda: power_law_graph(1024, 12, seed=24),
    "bc": lambda: power_law_graph(1024, 16, seed=25),
    "tc": lambda: uniform_graph(512, 16, seed=26),
}

_program_cache: Dict[str, Program] = {}
_trace_cache: Dict[tuple, DynamicTrace] = {}


def build_workload(name: str) -> Program:
    """Build (and cache) the program for a benchmark name."""
    if name in _program_cache:
        return _program_cache[name]
    if name in SPEC_PROFILES:
        program = build_synthetic_program(SPEC_PROFILES[name])
    elif name in KERNEL_BUILDERS:
        program = KERNEL_BUILDERS[name](_GAP_GRAPHS[name]())
    else:
        raise KeyError(f"unknown workload {name!r}; choose from {ALL_NAMES}")
    _program_cache[name] = program
    return program


def workload_trace(name: str, num_instructions: int) -> DynamicTrace:
    """The trace of ``name`` for ``num_instructions``, through
    :func:`load_workload`."""
    return load_workload(name, num_instructions)[1]


def clear_trace_cache() -> None:
    """Drop the in-process programs and traces (tests use this to bound
    memory). The on-disk workload store is left alone."""
    _trace_cache.clear()
    _program_cache.clear()


# --------------------------------------------------------------------------
# The workload store
# --------------------------------------------------------------------------

#: modules whose source decides a workload's program image or trace
GENERATOR_MODULES = (
    "repro.common.rng", "repro.isa.opcodes", "repro.isa.uop",
    "repro.workloads.emulator", "repro.workloads.graphs",
    "repro.workloads.kernels", "repro.workloads.profiles",
    "repro.workloads.program", "repro.workloads.synthetic",
)


def source_digest(paths: Iterable[Path]) -> str:
    """Short sha256 over the bytes of ``paths``, in order."""
    digest = hashlib.sha256()
    for path in paths:
        data = Path(path).read_bytes()
        digest.update(f"{Path(path).name}:{len(data)}:".encode())
        digest.update(data)
    return digest.hexdigest()[:16]


# Read while this module is imported, when every generator module has
# just been loaded: the digest describes the code this process runs, and
# a forked worker inherits it, even if the files are edited later.
_GENERATOR_DIGEST = source_digest(importlib.import_module(name).__file__
                                  for name in GENERATOR_MODULES)


def generator_digest() -> str:
    """Digest of the :data:`GENERATOR_MODULES` sources as this process
    loaded them: editing a generator (a ``SPEC_PROFILES`` entry, a
    kernel, the emulator) changes every bundle key."""
    return _GENERATOR_DIGEST


def bundle_path(name: str, num_instructions: int) -> Path:
    """Where the store keeps the bundle of (``name``,
    ``num_instructions``): the key names the pair, the bundle format
    version and the generator digest."""
    return (cache_root() / "workloads" /
            f"{name}-{num_instructions}-v{TRACE_FORMAT_VERSION}-"
            f"{generator_digest()}.npz")


#: a bundle key: ``<name>-<length>-v<format version>-<generator digest>.npz``
_BUNDLE_NAME = re.compile(r"^.+-\d+-v(\d+)-([0-9a-f]+)\.npz$")


def _drop_unreadable_bundles(store: Path) -> None:
    """Unlink the bundles in ``store`` that this code can never read:
    those keyed by another format version or generator digest. A process
    still running other code only rebuilds what it loses; temp files
    (``*.tmp.*``) never match, so no write in flight is touched."""
    current = (str(TRACE_FORMAT_VERSION), generator_digest())
    try:
        for entry in store.glob("*.npz"):
            match = _BUNDLE_NAME.match(entry.name)
            if match is not None and match.groups() != current:
                try:
                    entry.unlink()
                except OSError:
                    pass
    except OSError:
        pass


def _complete(trace: DynamicTrace, name: str, num_instructions: int) -> bool:
    """``trace`` is what emulating ``name`` for ``num_instructions``
    gives: that many uops, or fewer ending at the program's HALT."""
    if trace.program_name != name or len(trace) > num_instructions:
        return False
    return (len(trace) == num_instructions
            or (bool(trace.uops) and trace.uops[-1].op is Op.HALT))


def load_workload(name: str,
                  num_instructions: int) -> Tuple[Program, DynamicTrace]:
    """The program of ``name`` and its trace of ``num_instructions``.

    Looks in this process's caches, then in the workload store; on a
    miss builds, emulates, and commits the bundle atomically, then drops
    the store's bundles under another format version or generator
    digest. An unreadable or malformed bundle counts as a miss and is
    rewritten. A store that cannot be written costs rebuilds, never the
    result.
    """
    key = (name, num_instructions)
    trace = _trace_cache.get(key)
    if trace is not None:
        return _program_cache[name], trace
    if name not in SPEC_PROFILES and name not in KERNEL_BUILDERS:
        raise KeyError(f"unknown workload {name!r}; choose from {ALL_NAMES}")
    path = bundle_path(name, num_instructions)
    try:
        program, trace = load_trace(path, _program_cache.get(name))
    except (FileNotFoundError, TraceBundleError):
        trace = None
    if trace is not None and _complete(trace, name, num_instructions):
        _program_cache.setdefault(name, program)
    else:
        program = build_workload(name)
        trace = Emulator(program).run(num_instructions)
        try:
            save_trace(path, program, trace)
        except OSError:
            pass
        else:
            _drop_unreadable_bundles(path.parent)
    _trace_cache[key] = trace
    return program, trace
