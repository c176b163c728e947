"""Trace serialisation round-trip tests (binary npz bundles)."""

import numpy as np
import pytest

from repro.common.config import small_core_config
from repro.core.ooo_core import OoOCore
from repro.core.simulator import Simulator
from repro.workloads import kernels, synthetic, traceio
from repro.workloads.emulator import Emulator
from repro.workloads.profiles import (ALL_NAMES, build_workload,
                                      clear_trace_cache, workload_trace)
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


class DictImageBuilder(ProgramBuilder):
    """A builder that also keeps its data image as a dict, one entry per
    initialised word, the form the image took before it was dense."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.image = {}

    def alloc_array(self, name, num_words, values=None):
        base = super().alloc_array(name, num_words, values)
        if isinstance(values, int):
            values = [values] * num_words
        for i, value in enumerate(values if values is not None else ()):
            self.image[base + 8 * i] = int(value)
        return base


def dict_image_columns(image, data_base, data_end):
    """The dict-to-columns encoding of a data image ``save_trace`` used
    before programs held their image dense: the reference here."""
    nwords = -(-(data_end - data_base) // 8)
    addrs = np.fromiter(image.keys(), dtype=np.int64, count=len(image))
    values = np.fromiter(image.values(), dtype=np.uint64, count=len(image))
    index = (addrs - data_base) // 8
    words = np.zeros(nwords, dtype=np.uint64)
    words[index] = values
    present = np.zeros(nwords, dtype=bool)
    present[index] = True
    return {"data_words": words, "data_present": np.packbits(present)}


def test_data_columns_match_the_dict_encoding(tmp_path, monkeypatch):
    """Every workload's bundle holds the data image a word-by-word dict
    build gives: the synthetic arrays from the scalar ``_scramble``, each
    word at its address, absent words zero and unflagged."""
    clear_trace_cache()
    for name in ALL_NAMES:
        program = build_workload(name)
        save_trace(tmp_path / f"{name}.npz", program,
                   Emulator(program).run(100))
    builders = []

    def dict_builder(*args, **kwargs):
        builders.append(DictImageBuilder(*args, **kwargs))
        return builders[-1]
    monkeypatch.setattr(synthetic, "ProgramBuilder", dict_builder)
    monkeypatch.setattr(kernels, "ProgramBuilder", dict_builder)
    monkeypatch.setattr(synthetic, "_scramble_words", lambda seed, n: [
        synthetic._scramble(seed, i) for i in range(n)])
    for name in ALL_NAMES:
        clear_trace_cache()
        builders.clear()
        reference = build_workload(name)
        [builder] = builders
        expected = dict_image_columns(builder.image, reference.data_base,
                                      reference.data_end)
        with np.load(tmp_path / f"{name}.npz", allow_pickle=False) as bundle:
            for key, column in expected.items():
                assert bundle[key].dtype == column.dtype, (name, key)
                assert np.array_equal(bundle[key], column), (name, key)
    clear_trace_cache()


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
        assert loaded_program.data_end == program.data_end
        assert np.array_equal(loaded_program.data_words, program.data_words)
        assert np.array_equal(loaded_program.data_present,
                              program.data_present)
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
        ("data_words", np.zeros(36_864, np.uint32)),     # wrong dtype
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
