"""Workload substrate: programs, emulator, traces, and benchmark profiles."""

from repro.workloads.emulator import EmulationError, Emulator
from repro.workloads.graphs import CSRGraph, power_law_graph, uniform_graph
from repro.workloads.kernels import KERNEL_BUILDERS
from repro.workloads.profiles import (
    ALL_NAMES,
    GAP_NAMES,
    SPEC_NAMES,
    build_workload,
    clear_trace_cache,
    load_workload,
    workload_trace,
)
from repro.workloads.program import Program, ProgramBuilder
from repro.workloads.synthetic import WorkloadProfile, build_synthetic_program
from repro.workloads.trace import DynamicTrace

__all__ = [
    "ALL_NAMES", "GAP_NAMES", "SPEC_NAMES", "CSRGraph", "DynamicTrace",
    "EmulationError", "Emulator", "KERNEL_BUILDERS", "Program",
    "ProgramBuilder", "WorkloadProfile", "build_synthetic_program",
    "build_workload", "clear_trace_cache", "load_workload",
    "power_law_graph", "uniform_graph", "workload_trace",
]
