"""Trace serialisation round-trip tests (binary npz bundles)."""

import numpy as np
import pytest

from repro.common.config import small_core_config
from repro.core.ooo_core import OoOCore
from repro.core.simulator import Simulator
from repro.workloads import traceio
from repro.workloads.emulator import Emulator
from repro.workloads.profiles import build_workload, workload_trace
from repro.workloads.program import ProgramBuilder
from repro.workloads.traceio import (
    TRACE_FORMAT_VERSION,
    TraceBundleError,
    load_trace,
    save_trace,
)


def rewrite_members(path, **changes):
    """Re-save the bundle at ``path`` with some members replaced
    (``None`` drops a member)."""
    with np.load(path, allow_pickle=False) as bundle:
        arrays = {key: bundle[key] for key in bundle.files}
    for key, value in changes.items():
        if value is None:
            arrays.pop(key)
        else:
            arrays[key] = value
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


class TestRoundTrip:
    def test_program_and_trace_roundtrip(self, tmp_path):
        program = build_workload("xz")
        trace = workload_trace("xz", 4_000)
        path = tmp_path / "xz.npz"
        save_trace(path, program, trace)
        loaded_program, loaded_trace = load_trace(path)

        assert loaded_program.name == program.name
        assert loaded_program.entry_pc == program.entry_pc
        assert len(loaded_program) == len(program)
        assert loaded_program.initial_data == program.initial_data
        assert loaded_program.arrays == program.arrays
        assert len(loaded_trace) == len(trace)
        assert loaded_trace.taken == trace.taken
        assert loaded_trace.next_pc == trace.next_pc
        assert loaded_trace.mem_addr == trace.mem_addr
        assert [u.pc for u in loaded_trace.uops] \
            == [u.pc for u in trace.uops]

    def test_loaded_trace_simulates_identically(self, tmp_path):
        program = build_workload("leela")
        trace = workload_trace("leela", 4_000)
        path = tmp_path / "leela.npz"
        save_trace(path, program, trace)
        loaded_program, loaded_trace = load_trace(path)

        core_a = OoOCore(small_core_config(), program, trace, seed=5)
        core_a.run(4_000)
        core_b = OoOCore(small_core_config(), loaded_program, loaded_trace,
                         seed=5)
        core_b.run(4_000)
        assert core_a.now == core_b.now
        assert core_a.stats.snapshot() == core_b.stats.snapshot()

    def test_simulator_accepts_loaded_bundle(self, tmp_path):
        program = build_workload("pr")
        trace = workload_trace("pr", 3_000)
        path = tmp_path / "pr.npz"
        save_trace(path, program, trace)
        loaded_program, loaded_trace = load_trace(path)
        result = Simulator().run("pr", warmup=500, measure=2_000,
                                 program=loaded_program,
                                 trace=loaded_trace)
        # retire-width overshoot is allowed when the trace continues past
        # the instruction target
        assert 2_000 <= result.instructions < 2_000 + 8

    def test_bound_to_a_program_in_memory(self, tmp_path):
        program = build_workload("xz")
        trace = workload_trace("xz", 2_000)
        path = tmp_path / "xz.npz"
        save_trace(path, program, trace)
        same, loaded_trace = load_trace(path, program)
        assert same is program
        assert all(a is b for a, b in zip(loaded_trace.uops, trace.uops))
        with pytest.raises(TraceBundleError, match="code image"):
            load_trace(path, build_workload("leela"))

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        save_trace(path, build_workload("xz"), workload_trace("xz", 2_000))
        rewrite_members(path, version=np.array(TRACE_FORMAT_VERSION + 99))
        with pytest.raises(ValueError, match="version"):
            load_trace(path)

    def test_save_is_atomic_no_temp_left(self, tmp_path):
        program = build_workload("xz")
        trace = workload_trace("xz", 2_000)
        path = tmp_path / "xz.npz"
        save_trace(path, program, trace)
        assert path.exists()
        assert list(tmp_path.iterdir()) == [path]

    def test_interrupted_save_leaves_no_partial_bundle(self, tmp_path,
                                                       monkeypatch):
        def broken_savez(handle, **arrays):
            handle.write(b"PK\x03\x04 half a bundle")
            raise OSError("disk full")
        monkeypatch.setattr(traceio.np, "savez", broken_savez)
        with pytest.raises(OSError, match="disk full"):
            save_trace(tmp_path / "xz.npz", build_workload("xz"),
                       workload_trace("xz", 2_000))
        assert list(tmp_path.iterdir()) == []

    def test_unrepresentable_program_is_refused(self, tmp_path):
        builder = ProgramBuilder("huge")
        builder.movi(1, 1 << 70)
        builder.halt()
        program = builder.finalize()
        trace = Emulator(program).run(10)
        with pytest.raises(ValueError, match="immediate"):
            save_trace(tmp_path / "huge.npz", program, trace)
        assert list(tmp_path.iterdir()) == []

    def test_truncated_bundle_raises_trace_bundle_error(self, tmp_path):
        program = build_workload("xz")
        trace = workload_trace("xz", 2_000)
        path = tmp_path / "xz.npz"
        save_trace(path, program, trace)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(TraceBundleError):
            load_trace(path)

    def test_non_npz_garbage_raises_trace_bundle_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not an npz archive at all")
        with pytest.raises(TraceBundleError):
            load_trace(path)

    def test_pickled_member_is_refused(self, tmp_path):
        path = tmp_path / "pickled.npz"
        with open(path, "wb") as handle:
            np.savez(handle, version=np.array(TRACE_FORMAT_VERSION),
                     name=np.array([{"x": 1}], dtype=object))
        with pytest.raises(TraceBundleError):
            load_trace(path)

    def test_structurally_malformed_bundle_raises(self, tmp_path):
        path = tmp_path / "hollow.npz"
        with open(path, "wb") as handle:
            np.savez(handle, version=np.array(TRACE_FORMAT_VERSION))
        with pytest.raises(TraceBundleError, match="malformed"):
            load_trace(path)

    @pytest.mark.parametrize("member, value", [
        ("taken", np.zeros(3, dtype=bool)),             # wrong length
        ("uop_index", np.array([10 ** 6], np.int32)),    # outside image
        ("op", np.zeros((2, 2), np.uint8)),              # wrong shape
        ("next_pc", np.zeros(2_000, np.float64)),        # wrong dtype
        ("op_names", np.array(["NOT_AN_OP"])),           # unknown opcode
        ("label_text", None),                            # missing
    ])
    def test_malformed_members_raise(self, tmp_path, member, value):
        path = tmp_path / "xz.npz"
        save_trace(path, build_workload("xz"), workload_trace("xz", 2_000))
        rewrite_members(path, **{member: value})
        with pytest.raises(TraceBundleError, match="malformed"):
            load_trace(path)

    def test_error_is_a_value_error_for_old_callers(self):
        assert issubclass(TraceBundleError, ValueError)

    def test_missing_file_still_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "absent.npz")

    def test_file_is_small(self, tmp_path):
        program = build_workload("xz")
        trace = workload_trace("xz", 4_000)
        path = tmp_path / "xz.npz"
        save_trace(path, program, trace)
        # the dense data image (36864 words) plus 21 bytes per trace
        # entry and 28 per static uop, with no per-record overhead
        assert path.stat().st_size < 500_000
