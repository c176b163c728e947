"""The workload store: one (program, trace) bundle per (workload, length)
under ``<cache root>/workloads/``, shared by every process.

Properties asserted here:

* a hit is field-by-field the program and trace a fresh build gives, for
  all 16 workloads, and simulates to identical cycles and counters
  (dense and sampled, base and APF);
* emulating a loaded program reproduces the stored trace;
* truncated, non-npz, wrong-version and wrong-shape bundles are misses,
  and the miss rewrites them;
* the key changes with the generator sources, and names the sources a
  process loaded, not the files as they are when it builds;
* concurrent writers leave one complete bundle and no temp files.
"""

import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.common.config import small_core_config
from repro.core.simulator import Simulator
from repro.isa.uop import StaticUop
from repro.sampling import SamplingPlan, SamplingSimulator
from repro.workloads import profiles, traceio
from repro.workloads.emulator import Emulator
from repro.workloads.profiles import (ALL_NAMES, bundle_path,
                                      clear_trace_cache, load_workload,
                                      source_digest)
from repro.workloads.traceio import (TRACE_FORMAT_VERSION, load_trace,
                                     save_trace)

LENGTH = 1_500


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A fresh cache root and empty in-process caches (before and after,
    so no other test sees programs loaded from this root)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_trace_cache()
    yield tmp_path / "workloads"
    clear_trace_cache()


def no_builds(monkeypatch):
    """Make any build or emulation fail: what follows must be a hit."""
    def refuse(*args, **kwargs):
        raise AssertionError("the store missed")
    monkeypatch.setattr(profiles, "build_workload", refuse)
    monkeypatch.setattr(Emulator, "run", refuse)


def record_reads(monkeypatch):
    """Keep the members of every bundle read, in order."""
    reads = []
    read = traceio._read

    def recording(path):
        reads.append(read(path))
        return reads[-1]
    monkeypatch.setattr(traceio, "_read", recording)
    return reads


def count_emulations(monkeypatch):
    calls = []
    original = Emulator.run

    def counting(self, n):
        calls.append(n)
        return original(self, n)
    monkeypatch.setattr(Emulator, "run", counting)
    return calls


def assert_same_program(loaded, fresh):
    assert loaded is not fresh
    for attr in ("name", "entry_pc", "code_base", "data_base", "data_end",
                 "arrays"):
        assert getattr(loaded, attr) == getattr(fresh, attr), attr
    assert len(loaded) == len(fresh)
    for a, b in zip(loaded.uops(), fresh.uops()):
        for slot in StaticUop.__slots__:
            assert getattr(a, slot) == getattr(b, slot), (slot, a, b)
            assert type(getattr(a, slot)) is type(getattr(b, slot)), slot
    for attr in ("data_words", "data_present"):
        assert getattr(loaded, attr).dtype == getattr(fresh, attr).dtype
        assert np.array_equal(getattr(loaded, attr), getattr(fresh, attr))


def assert_same_trace(loaded, fresh):
    assert loaded.program_name == fresh.program_name
    assert [u.pc for u in loaded.uops] == [u.pc for u in fresh.uops]
    assert loaded.taken == fresh.taken
    assert loaded.next_pc == fresh.next_pc
    assert loaded.mem_addr == fresh.mem_addr
    assert {type(t) for t in loaded.taken} <= {bool}


class TestHitsMatchFreshBuilds:
    def test_all_workloads_field_by_field(self, store, monkeypatch):
        fresh = {name: load_workload(name, LENGTH) for name in ALL_NAMES}
        assert len(list(store.glob("*.npz"))) == len(ALL_NAMES)
        imms = [u.imm for program, _ in fresh.values()
                for u in program.uops()]
        # the encoding's edge cases really occur
        assert min(imms) < 0 and max(imms) >= 1 << 63
        assert any(u.label for program, _ in fresh.values()
                   for u in program.uops())

        clear_trace_cache()
        no_builds(monkeypatch)
        reads = record_reads(monkeypatch)
        for name in ALL_NAMES:
            program, trace = load_workload(name, LENGTH)
            # the hit path wraps the bundle's own word array: no copy,
            # no per-word conversion
            assert program.data_words is reads[-1]["data_words"]
            assert all(u is program.uops()[(u.pc - program.code_base) // 4]
                       for u in trace.uops)
            assert_same_trace(trace, fresh[name][1])
            assert_same_program(program, fresh[name][0])

    def test_in_process_caches_are_consulted_first(self, store,
                                                   monkeypatch):
        first = load_workload("xz", LENGTH)
        no_builds(monkeypatch)
        for path in store.iterdir():
            path.unlink()
        assert load_workload("xz", LENGTH) == first

    def test_other_length_binds_to_the_program_in_memory(self, store):
        load_workload("leela", LENGTH)
        load_workload("leela", 2 * LENGTH)
        clear_trace_cache()
        program, trace = load_workload("leela", LENGTH)
        other, other_trace = load_workload("leela", 2 * LENGTH)
        assert other is program
        assert all(u is program.uops()[(u.pc - program.code_base) // 4]
                   for u in other_trace.uops)

    def test_emulating_a_loaded_program_reproduces_the_trace(self, store):
        for name in ("mcf", "perlbench", "bc"):
            load_workload(name, LENGTH)
        clear_trace_cache()
        for name in ("mcf", "perlbench", "bc"):
            program, trace = load_workload(name, LENGTH)
            assert_same_trace(Emulator(program).run(LENGTH), trace)

    @pytest.mark.parametrize("workload", ["leela", "mcf"])
    def test_simulations_identical_on_hits(self, store, workload):
        base = small_core_config()
        plan = SamplingPlan(intervals=4, period=1_000, detailed_warmup=100,
                            measure=400)
        runs = {
            "base": lambda: Simulator(base, seed=7).run(workload, 800, 800),
            "apf": lambda: Simulator(base.with_apf(), seed=7).run(
                workload, 800, 800),
            "sampled-apf": lambda: SamplingSimulator(
                base.with_apf(), seed=7).run(workload, plan),
        }
        fresh = {label: run() for label, run in runs.items()}
        assert len(list(store.glob(f"{workload}-*.npz"))) == 2
        clear_trace_cache()
        for label, run in runs.items():
            hit = run()
            assert (hit.cycles, hit.instructions) \
                == (fresh[label].cycles, fresh[label].instructions), label
            assert hit.counters == fresh[label].counters, label
            assert hit.interval_ipcs == fresh[label].interval_ipcs, label


def corrupt_truncated(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 3])


def corrupt_garbage(path):
    path.write_bytes(b"not a bundle\n" * 10)


def corrupt_version(path):
    rewrite(path, version=np.array(TRACE_FORMAT_VERSION + 1))


def corrupt_shape(path):
    rewrite(path, mem_addr=np.zeros(7, dtype=np.uint64))


def corrupt_other_workload(path):
    program, trace = load_trace(bundle_path("tc", LENGTH))
    save_trace(path, program, trace)


def rewrite(path, **changes):
    with np.load(path, allow_pickle=False) as bundle:
        arrays = {key: bundle[key] for key in bundle.files}
    arrays.update(changes)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


class TestMalformedBundlesAreMisses:
    @pytest.mark.parametrize("corrupt", [
        corrupt_truncated, corrupt_garbage, corrupt_version, corrupt_shape,
        corrupt_other_workload])
    def test_miss_and_rewrite(self, store, monkeypatch, corrupt):
        load_workload("tc", LENGTH)
        fresh_program, fresh_trace = load_workload("xz", LENGTH)
        path = bundle_path("xz", LENGTH)
        corrupt(path)
        clear_trace_cache()
        emulations = count_emulations(monkeypatch)
        program, trace = load_workload("xz", LENGTH)
        assert emulations == [LENGTH]
        assert_same_trace(trace, fresh_trace)
        # the bad bundle was replaced by a good one
        clear_trace_cache()
        loaded_program, loaded_trace = load_trace(path)
        assert_same_program(loaded_program, fresh_program)
        assert_same_trace(loaded_trace, fresh_trace)
        assert not list(store.glob("*.tmp.*"))


class TestKey:
    def test_key_names_workload_length_version_and_digest(self, store):
        path = bundle_path("xz", LENGTH)
        assert path.parent == store
        assert path.name == (f"xz-{LENGTH}-v{TRACE_FORMAT_VERSION}-"
                             f"{profiles.generator_digest()}.npz")

    def test_source_digest_follows_every_byte(self, tmp_path):
        a, b = tmp_path / "a.py", tmp_path / "b.py"
        a.write_text("SEED = 101\n")
        b.write_text("x = 1\n")
        before = source_digest([a, b])
        assert source_digest([a, b]) == before
        a.write_text("SEED = 102\n")
        assert source_digest([a, b]) != before

    def test_changed_generator_digest_gives_a_new_key(self, store,
                                                      monkeypatch):
        load_workload("xz", LENGTH)
        old = bundle_path("xz", LENGTH)
        monkeypatch.setattr(profiles, "generator_digest",
                            lambda: "0123456789abcdef")
        assert bundle_path("xz", LENGTH) != old
        clear_trace_cache()
        emulations = count_emulations(monkeypatch)
        load_workload("xz", LENGTH)
        # the bundle under the old digest is never served
        assert emulations == [LENGTH]
        assert bundle_path("xz", LENGTH).exists() and old.exists()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_sources_edited_after_import_do_not_rekey_forked_builds(
            self, store, tmp_path):
        # A copy of the package: a process imports it, the copy's
        # synthetic.py is edited, then a forked child builds with the
        # code loaded before the edit.
        src = tmp_path / "src"
        shutil.copytree(Path(profiles.__file__).resolve().parents[1],
                        src / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(src))

        def run(script):
            return subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=300).stdout.split()
        exitcode, inherited = run(EDIT_THEN_FORK)
        assert exitcode == "0"
        [edited] = run("from repro.workloads import profiles\n"
                       "print(profiles.bundle_path('xz', 500).name)")
        loaded = bundle_path("xz", 500).name    # the sources before the edit
        assert edited != loaded
        # nothing is committed under the edited sources' key
        assert [p.name for p in store.iterdir()] == [loaded]
        assert inherited == loaded

    def test_unwritable_store_still_gives_the_result(self, store,
                                                     monkeypatch):
        blocker = store.parent / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker))
        program, trace = load_workload("xz", LENGTH)
        assert len(trace) == LENGTH
        assert not bundle_path("xz", LENGTH).parent.exists()

    def test_unknown_workload_raises_key_error(self, store):
        with pytest.raises(KeyError, match="unknown workload"):
            load_workload("spec_rate_fp", LENGTH)
        assert not store.exists()


EDIT_THEN_FORK = """
import multiprocessing, sys
from pathlib import Path
from repro.workloads import profiles

def child():
    profiles.load_workload("xz", 500)

source = Path(sys.modules["repro.workloads.synthetic"].__file__)
source.write_text(source.read_text() + "\\n# edited after import\\n")
proc = multiprocessing.get_context("fork").Process(target=child)
proc.start()
proc.join(120)
print(proc.exitcode, profiles.bundle_path("xz", 500).name)
"""


def _load_in_child(barrier):
    barrier.wait()
    load_workload("mcf", LENGTH)


class TestConcurrentWriters:
    def test_processes(self, store):
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        barrier = ctx.Barrier(4)
        procs = [ctx.Process(target=_load_in_child, args=(barrier,))
                 for _ in range(4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(120)
        assert [proc.exitcode for proc in procs] == [0] * 4
        assert [p.name for p in store.iterdir()] \
            == [bundle_path("mcf", LENGTH).name]
        load_trace(bundle_path("mcf", LENGTH))

    def test_threads(self, store):
        program, trace = load_workload("leela", LENGTH)
        path = bundle_path("leela", LENGTH)
        barrier = threading.Barrier(4)
        errors = []

        def write():
            barrier.wait()
            try:
                for _ in range(3):
                    save_trace(path, program, trace)
            except Exception as exc:     # surfaced below
                errors.append(exc)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert list(store.iterdir()) == [path]
        _, loaded = load_trace(path)
        assert_same_trace(loaded, trace)
