"""Tests for the synthetic workload generator and benchmark profiles."""

import tracemalloc

import numpy as np
import pytest

from repro.isa.opcodes import BranchKind, Op
from repro.workloads.emulator import Emulator
from repro.workloads.profiles import (
    ALL_NAMES,
    GAP_NAMES,
    SPEC_NAMES,
    SPEC_PROFILES,
    build_workload,
    clear_trace_cache,
    workload_trace,
)
from repro.workloads.synthetic import (
    WorkloadProfile,
    _scramble,
    _scramble_words,
    build_synthetic_program,
)


class TestGenerator:
    def test_program_is_deterministic(self):
        profile = WorkloadProfile(name="det", seed=5)
        a = build_synthetic_program(profile)
        b = build_synthetic_program(profile)
        assert [u.op for u in a.uops()] == [u.op for u in b.uops()]
        assert np.array_equal(a.data_words, b.data_words)
        assert np.array_equal(a.data_present, b.data_present)

    def test_different_seeds_differ(self):
        a = build_synthetic_program(WorkloadProfile(name="a", seed=1))
        b = build_synthetic_program(WorkloadProfile(name="b", seed=2))
        assert [u.op for u in a.uops()] != [u.op for u in b.uops()]

    def test_runs_indefinitely(self):
        profile = WorkloadProfile(name="x", seed=3, num_segments=4)
        program = build_synthetic_program(profile)
        trace = Emulator(program).run(30_000)
        assert len(trace) == 30_000

    def test_branch_mix_reflected_in_labels(self):
        profile = WorkloadProfile(
            name="mix", seed=7,
            branch_mix={"periodic": 0.0, "biased": 1.0, "h2p": 0.0,
                        "correlated": 0.0})
        program = build_synthetic_program(profile)
        labels = {u.label[:6] for u in program.uops() if u.label}
        assert any(lab.startswith("biased") for lab in labels)
        assert not any(lab.startswith("h2p") for lab in labels)

    def test_h2p_taken_rate_close_to_profile(self):
        profile = WorkloadProfile(
            name="h2p", seed=11,
            branch_mix={"periodic": 0.0, "biased": 0.0, "h2p": 1.0,
                        "correlated": 0.0},
            h2p_taken_prob=0.3)
        program = build_synthetic_program(profile)
        trace = Emulator(program).run(60_000)
        outcomes = [t for u, t in zip(trace.uops, trace.taken)
                    if u.label.startswith("h2p")]
        assert outcomes
        rate = sum(outcomes) / len(outcomes)
        assert rate == pytest.approx(0.3, abs=0.06)

    def test_biased_rate_close_to_profile(self):
        profile = WorkloadProfile(
            name="biased", seed=13,
            branch_mix={"periodic": 0.0, "biased": 1.0, "h2p": 0.0,
                        "correlated": 0.0},
            biased_taken_prob=0.95)
        program = build_synthetic_program(profile)
        trace = Emulator(program).run(60_000)
        outcomes = [t for u, t in zip(trace.uops, trace.taken)
                    if u.label.startswith("biased")]
        rate = sum(outcomes) / len(outcomes)
        assert rate == pytest.approx(0.95, abs=0.04)

    def test_indirect_cases_emit_ijumps(self):
        profile = WorkloadProfile(name="ind", seed=17, indirect_cases=8)
        program = build_synthetic_program(profile)
        ijumps = [u for u in program.uops() if u.op is Op.IJUMP]
        assert ijumps
        trace = Emulator(program).run(30_000)
        executed = [u for u in trace.uops if u.op is Op.IJUMP]
        assert executed

    def test_calls_and_returns_balance(self):
        profile = WorkloadProfile(name="cr", seed=19, num_segments=6)
        program = build_synthetic_program(profile)
        trace = Emulator(program).run(30_000)
        calls = sum(1 for u in trace.uops if u.kind is BranchKind.CALL)
        rets = sum(1 for u in trace.uops if u.kind is BranchKind.RETURN)
        assert calls > 0
        assert abs(calls - rets) <= 1

    def test_larger_segments_mean_larger_footprint(self):
        small = build_synthetic_program(
            WorkloadProfile(name="s", seed=23, num_segments=4))
        large = build_synthetic_program(
            WorkloadProfile(name="l", seed=23, num_segments=32))
        assert len(large) > 2 * len(small)


class TestProfiles:
    def test_name_lists(self):
        assert len(SPEC_NAMES) == 10
        assert len(GAP_NAMES) == 6
        assert ALL_NAMES == SPEC_NAMES + GAP_NAMES
        assert set(SPEC_PROFILES) == set(SPEC_NAMES)

    def test_build_all_workloads(self):
        for name in ALL_NAMES:
            program = build_workload(name)
            assert len(program) > 40

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            build_workload("spec_rate_fp")

    def test_data_image_matches_scalar_scramble(self):
        """For every profile, the vectorised initialiser gives the scalar
        ``_scramble`` reference word for word, and the built image holds
        those words."""
        for name in SPEC_NAMES:
            profile = SPEC_PROFILES[name]
            program = build_workload(name)
            for array, seed, count in (
                    ("random_data", profile.seed, profile.random_data_words),
                    ("working_set", profile.seed ^ 0xABCD,
                     profile.working_set_words)):
                expected = [_scramble(seed, i) for i in range(count)]
                assert _scramble_words(seed, count).tolist() == expected, \
                    (name, array)
                first = (program.arrays[array] - program.data_base) // 8
                image = slice(first, first + count)
                assert program.data_words[image].tolist() == expected, \
                    (name, array)
                assert program.data_present[image].all(), (name, array)

    def test_mcf_build_makes_no_object_per_data_word(self):
        """mcf's 196,608-word data image is built as arrays: the build's
        allocation peak stays far below the ~26 MB that a dict entry and
        a Python int per word take."""
        clear_trace_cache()
        tracemalloc.start()
        try:
            build_workload("mcf")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_trace_cache_returns_same_object(self):
        a = workload_trace("xz", 5_000)
        b = workload_trace("xz", 5_000)
        assert a is b

    def test_all_traces_run(self):
        for name in ALL_NAMES:
            trace = workload_trace(name, 20_000)
            assert len(trace) == 20_000
            assert trace.count_conditional_branches() > 200

    def test_mpki_shape_inputs(self):
        """Sanity on the raw ingredients of the Fig. 2 calibration: the
        high-MPKI profiles feed more unpredictable branches."""
        leela = SPEC_PROFILES["leela"]
        perl = SPEC_PROFILES["perlbench"]
        assert leela.branch_mix["h2p"] > 5 * perl.branch_mix["h2p"]
        assert perl.biased_taken_prob >= leela.biased_taken_prob
