"""Golden equivalence: the event-driven cycle-skipping loop must be
bit-identical to the per-cycle reference loop.

The skip loop (``run(..., cycle_by_cycle=False)``, the default) jumps
``now`` across provably idle windows and batch-increments the stall
counters those windows would have produced. These tests pin the
non-negotiable invariant from the optimization: cycles, retired count,
and the *entire* statistics snapshot are equal between the two loops —
straight runs, warmed-up runs, and runs split by a
quiesce/snapshot/restore boundary — on the standard configurations and
on a seeded fuzz of the valid configuration space (the
``test_fuzzed_*`` tests).
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.config import (AlternatePathMode, FetchScheme,
                                 small_core_config)
from repro.core.ooo_core import OoOCore
from repro.obs import ObsSink
from repro.obs.accounting import (CPI_PREFIX, stack_from_counters,
                                  stack_from_result)
from repro.sampling import SamplingPlan, SamplingSimulator
from repro.workloads.profiles import build_workload, workload_trace

WORKLOADS = ["leela", "mcf", "tc"]
CONFIGS = {
    "base": lambda: small_core_config(),
    "apf": lambda: small_core_config().with_apf(),
}
TOTAL = 6_000
SEED = 7


def make_core(workload, config_key):
    program = build_workload(workload)
    trace = workload_trace(workload, TOTAL)
    return OoOCore(CONFIGS[config_key](), program, trace, seed=SEED)


def fingerprint(core):
    return {
        "now": core.now,
        "retired": core.retired,
        "counters": core.stats.counters,
        "ipc": core.ipc(),
    }


def spy_fetch_one(core):
    """Count ``core``'s per-uop fetches: returns a one-item list that
    holds the running number of ``_fetch_one`` calls."""
    calls = [0]
    fetch_one = core.fetch._fetch_one

    def counted(now):
        calls[0] += 1
        return fetch_one(now)

    core.fetch._fetch_one = counted
    return calls


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("config_key", ["base", "apf"])
class TestLoopEquivalence:
    def test_straight_run(self, workload, config_key):
        ref = make_core(workload, config_key)
        ref.run(TOTAL, cycle_by_cycle=True)
        skip = make_core(workload, config_key)
        skip.run(TOTAL)
        assert fingerprint(skip) == fingerprint(ref)

    def test_warmup_run(self, workload, config_key):
        """Warmup gates stat collection; the measured() deltas and final
        snapshots must still match exactly."""
        warmup = 2_000
        ref = make_core(workload, config_key)
        ref.run(TOTAL, warmup=warmup, cycle_by_cycle=True)
        skip = make_core(workload, config_key)
        skip.run(TOTAL, warmup=warmup)
        assert fingerprint(skip) == fingerprint(ref)
        for key in ("recoveries", "cond_mispredicts", "stall_rob",
                    "stall_ftq_full"):
            assert skip.measured(key) == ref.measured(key)

    def test_across_snapshot_restore(self, workload, config_key):
        """Run to a split point, quiesce, snapshot, restore into a fresh
        core, and continue — both loops must agree at the boundary (the
        full snapshot dict) and at the end."""
        split = TOTAL // 2
        boundaries = {}
        finals = {}
        for mode, cycle_by_cycle in (("ref", True), ("skip", False)):
            first = make_core(workload, config_key)
            first.run(split, cycle_by_cycle=cycle_by_cycle)
            first.quiesce()
            state = first.snapshot()
            boundaries[mode] = state
            second = make_core(workload, config_key)
            second.restore(state)
            second.run(TOTAL, cycle_by_cycle=cycle_by_cycle)
            finals[mode] = fingerprint(second)
        assert boundaries["skip"] == boundaries["ref"]
        assert finals["skip"] == finals["ref"]

    def test_cpi_stack_sums_and_matches_across_drivers(self, workload,
                                                       config_key):
        """Every issue slot is attributed to exactly one CPI-stack leaf:
        the leaves sum to ``width * cycles`` bit-exactly, and the whole
        stack is identical under both loop drivers."""
        width = CONFIGS[config_key]().backend.allocate_width
        stacks = {}
        for mode, cycle_by_cycle in (("ref", True), ("skip", False)):
            core = make_core(workload, config_key)
            core.run(TOTAL, cycle_by_cycle=cycle_by_cycle)
            stack = stack_from_counters(core.stats.counters, width=width,
                                        cycles=core.now, workload=workload,
                                        config=config_key,
                                        instructions=core.retired)
            stack.check()   # raises on any sum-invariant violation
            stacks[mode] = stack
        assert stacks["skip"].slots == stacks["ref"].slots

    def test_exactly_one_backend_stall_per_blocked_cycle(self, workload,
                                                         config_key):
        """A blocked allocation cycle fires exactly one backend stall
        counter — never zero-and-blocked, never two (the _allocate
        priority chain returns right after the first increment)."""
        core = make_core(workload, config_key)
        cells = (core._c_stall_rob, core._c_stall_sched,
                 core._c_stall_lq, core._c_stall_sq)
        original = core._allocate
        violations = []

        def checked_allocate():
            before = tuple(cell.value for cell in cells)
            original()
            deltas = [cell.value - prev
                      for cell, prev in zip(cells, before)]
            if sum(deltas) > 1 or any(d not in (0, 1) for d in deltas):
                violations.append((core.now, deltas))

        core._allocate = checked_allocate
        core.run(TOTAL, cycle_by_cycle=True)
        assert not violations
        assert sum(cell.value for cell in cells) > 0, \
            "workloads are sized to exercise at least one backend stall"

    def test_obs_sink_does_not_change_timing_or_attribution(
            self, workload, config_key):
        """Attaching an observability sink must leave cycles, retirement,
        and every cpi_* leaf bit-identical (events fire off the same
        state changes the accounting already observes)."""
        plain = make_core(workload, config_key)
        plain.run(TOTAL)
        observed = make_core(workload, config_key)
        observed.attach_obs(ObsSink())
        observed.run(TOTAL)
        assert fingerprint(observed) == fingerprint(plain)
        cpi = {k: v for k, v in plain.stats.counters.items()
               if k.startswith(CPI_PREFIX)}
        assert cpi  # the run produced attribution at all
        assert {k: v for k, v in observed.stats.counters.items()
                if k.startswith(CPI_PREFIX)} == cpi


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("config_key", ["base", "apf"])
class TestBlockFastPath:
    """The block-grain fetch fast path (each straight-line run of a fetch
    group built in one step, with no per-uop control-flow checks) is a
    pure optimization: forcing it off must reproduce every cycle and
    counter bit-exactly."""

    def test_fast_path_off_is_bit_identical(self, workload, config_key):
        fast = make_core(workload, config_key)
        fast_calls = spy_fetch_one(fast)
        fast.run(TOTAL)
        slow = make_core(workload, config_key)
        slow.fetch.use_block_fast_path = False
        slow_calls = spy_fetch_one(slow)
        slow.run(TOTAL)
        # the fast run must actually have built runs without per-uop
        # fetches, or this test proves nothing
        assert fast_calls[0] < slow_calls[0]
        assert fingerprint(slow) == fingerprint(fast)

    def test_fast_path_off_matches_reference_loop(self, workload,
                                                  config_key):
        """Close the triangle: (skip, fast) == (ref, slow), so all four
        driver/fast-path combinations are transitively identical."""
        fast = make_core(workload, config_key)
        fast.run(TOTAL)
        ref = make_core(workload, config_key)
        ref.fetch.use_block_fast_path = False
        ref.run(TOTAL, cycle_by_cycle=True)
        assert fingerprint(ref) == fingerprint(fast)

    def test_snapshot_restore_at_mid_block_splits(self, workload,
                                                  config_key):
        """Quiesce/snapshot at split points chosen to land mid-block
        (odd, non-round retire counts): the fast path must drain
        cleanly, producing the same snapshot dict and the same resumed
        run as the per-uop reference path split at the same point."""
        for split in (TOTAL // 3 + 1, TOTAL // 2 + 7):
            results = {}
            for fp in (True, False):
                first = make_core(workload, config_key)
                first.fetch.use_block_fast_path = fp
                first.run(split)
                first.quiesce()
                state = first.snapshot()
                second = make_core(workload, config_key)
                second.fetch.use_block_fast_path = fp
                second.restore(state)
                second.run(TOTAL)
                results[fp] = (state, fingerprint(second))
            assert results[True] == results[False], f"split at {split}"

    def test_obs_event_stream_identical_across_fast_path(self, workload,
                                                         config_key):
        """Run-built bundles must replay the exact per-uop event stream:
        every recorded event tuple and every occupancy histogram matches
        the per-uop reference path."""
        from repro.obs import EventRecorder
        streams = {}
        for fp in (True, False):
            core = make_core(workload, config_key)
            core.fetch.use_block_fast_path = fp
            recorder = EventRecorder()
            core.attach_obs(recorder)
            core.run(TOTAL)
            assert recorder.dropped == 0
            streams[fp] = (list(recorder.events),
                           {k: dict(h.buckets)
                            for k, h in recorder.occupancy.items()})
        assert streams[True][0] == streams[False][0]
        assert streams[True][1] == streams[False][1]

    def test_apf_restores_fire_with_fast_path_on(self, workload,
                                                 config_key):
        """Restores must still fire (and agree with the per-uop path)
        when fetch builds straight-line runs."""
        if config_key != "apf":
            pytest.skip("restore boundary only exists with APF on")
        fast = make_core(workload, config_key)
        fast.run(TOTAL)
        assert fast.stats.counters["apf_restores"] > 0
        slow = make_core(workload, config_key)
        slow.fetch.use_block_fast_path = False
        slow.run(TOTAL)
        assert (slow.stats.counters["apf_restores"]
                == fast.stats.counters["apf_restores"])


@pytest.mark.parametrize("workload", ["leela", "tc"])
@pytest.mark.parametrize("config_key", ["base", "apf"])
class TestRetireBatching:
    """The batched retire drain (one ROB-prefix pass with locally
    accumulated counter deltas) must be invisible: warmup-boundary
    snapshots, quiesce/restore state, and APF restore accounting all
    match the per-cycle reference driver bit-exactly, including when
    the boundary in question lands strictly inside a retire batch."""

    def test_warmup_crossing_mid_batch(self, workload, config_key):
        """Sweep the warmup target across one retire-width span so at
        least one target lands mid-batch; the flush-before-_cross_warmup
        path must leave the boundary snapshot identical to the per-cycle
        driver's."""
        width = CONFIGS[config_key]().backend.retire_width
        for warmup in range(2_000, 2_000 + width + 1, max(1, width // 3)):
            ref = make_core(workload, config_key)
            ref.run(TOTAL, warmup=warmup, cycle_by_cycle=True)
            skip = make_core(workload, config_key)
            skip.run(TOTAL, warmup=warmup)
            assert fingerprint(skip) == fingerprint(ref), warmup
            for key in ("retired_loads", "retired_stores",
                        "cond_mispredicts", "apf_restores"):
                assert skip.measured(key) == ref.measured(key), (warmup,
                                                                 key)

    def test_batch_deltas_survive_snapshot_restore(self, workload,
                                                   config_key):
        """Load/store queue releases and the H2P decrement clock are
        flushed from batch-local deltas; a quiesce/snapshot/restore
        boundary right after a retire-heavy window must round-trip them
        identically under both drivers."""
        split = TOTAL // 3
        finals = {}
        for mode, cycle_by_cycle in (("ref", True), ("skip", False)):
            first = make_core(workload, config_key)
            first.run(split, cycle_by_cycle=cycle_by_cycle)
            first.quiesce()
            state = first.snapshot()
            # quiesce drained the pipeline: every batched queue-release
            # delta must have been flushed back into the live counts
            assert first.load_count == 0
            assert first.store_count == 0
            second = make_core(workload, config_key)
            second.restore(state)
            second.run(TOTAL, cycle_by_cycle=cycle_by_cycle)
            finals[mode] = fingerprint(second)
        assert finals["skip"] == finals["ref"]

    def test_no_out_of_order_retire(self, workload, config_key):
        """The silent ``inflight.remove`` fallback is counted; on every
        normal run the counter stays zero (branches retire in fetch
        order)."""
        core = make_core(workload, config_key)
        core.run(TOTAL)
        assert core._c_retire_out_of_order.value == 0
        assert core.stats.counters.get("retire_out_of_order", 0) == 0


# --------------------------------------------------------------------------
# fuzzed driver equivalence over the valid configuration space
# --------------------------------------------------------------------------

FUZZ_WORKLOADS = ("leela", "mcf", "xz", "bfs")
FUZZ_TOTAL = 3_000


def fuzz_config(width, ftq, rob, scheduler, lq, sq, predictor,
                baseline_banks, apf=None):
    """A small-scale core reshaped by the fuzzed fields; ``apf`` holds
    the alternate-path overrides, or is None for a plain core."""
    config = dataclasses.replace(small_core_config(),
                                 predictor_kind=predictor,
                                 baseline_tage_banks=baseline_banks)
    config = config.with_frontend(width=width, fetch_queue_entries=ftq)
    config = config.with_backend(
        allocate_width=width, issue_width=width, retire_width=width,
        rob_entries=rob, scheduler_entries=scheduler,
        load_queue_entries=lq, store_queue_entries=sq)
    return config if apf is None else config.with_apf(**apf)


BANK_COUNTS = st.sampled_from((1, 2, 4, 8))
FUZZ_CONFIGS = st.builds(
    fuzz_config,
    width=st.integers(1, 16),
    ftq=st.integers(1, 32),
    rob=st.integers(8, 512),
    scheduler=st.integers(2, 160),
    lq=st.integers(1, 64),
    sq=st.integers(1, 64),
    predictor=st.sampled_from(("tage", "perceptron", "gshare")),
    baseline_banks=BANK_COUNTS,
    apf=st.none() | st.fixed_dictionaries({
        "mode": st.sampled_from((AlternatePathMode.APF,
                                 AlternatePathMode.DPIP)),
        "pipeline_depth": st.integers(1, 17),
        "num_buffers": st.integers(0, 8),
        "buffer_capacity_uops": st.integers(1, 200),
        "shadow_ras_entries": st.integers(0, 8),
        "fetch_scheme": st.sampled_from((FetchScheme.BANKED,
                                         FetchScheme.TIME_SHARED,
                                         FetchScheme.DUAL_PORT)),
        "tage_banks": BANK_COUNTS,
    }))

#: pinned every run: a banked APF core with a zero-entry shadow RAS
#: whose alternate paths make calls, so every shadow push must be dropped
ZERO_SHADOW_RAS = fuzz_config(
    12, 19, 23, 120, 48, 46, "perceptron", 1,
    apf=dict(pipeline_depth=10, num_buffers=3, buffer_capacity_uops=134,
             shadow_ras_entries=0, fetch_scheme=FetchScheme.BANKED,
             tage_banks=1))

#: pinned every run: an APF core with no return address stack, so every
#: call's push, on either path, must be dropped
ZERO_RAS = dataclasses.replace(small_core_config().with_apf(),
                               ras_entries=0)


def check_invariants(core, width):
    """No cycle cap, in-order retire, and CPI leaves summing to
    ``width * cycles``."""
    assert not core.cycle_cap_hit
    assert core.stats.counters.get("retire_out_of_order", 0) == 0
    stack_from_counters(core.stats.counters, width=width,
                        cycles=core.now).check()


@settings(max_examples=40, derandomize=True, database=None,
          deadline=None)
@given(config=FUZZ_CONFIGS, workload=st.sampled_from(FUZZ_WORKLOADS))
@example(config=ZERO_SHADOW_RAS, workload="xz")
@example(config=ZERO_RAS, workload="leela")
def test_fuzzed_configs_agree_across_drivers(config, workload):
    """Both loop drivers agree bit for bit on any valid configuration,
    and every run keeps the simulator invariants. The reference driver
    also fetches uop by uop, so the fuzz checks the fetch fast path's
    runs too."""
    program = build_workload(workload)
    trace = workload_trace(workload, FUZZ_TOTAL)
    fingerprints = {}
    for cycle_by_cycle in (True, False):
        core = OoOCore(config, program, trace, seed=SEED)
        core.fetch.use_block_fast_path = not cycle_by_cycle
        core.run(FUZZ_TOTAL, cycle_by_cycle=cycle_by_cycle)
        check_invariants(core, config.backend.allocate_width)
        fingerprints[cycle_by_cycle] = fingerprint(core)
    assert fingerprints[False] == fingerprints[True]


@settings(max_examples=8, derandomize=True, database=None,
          deadline=None)
@given(config=FUZZ_CONFIGS, workload=st.sampled_from(FUZZ_WORKLOADS))
def test_fuzzed_configs_split_and_sampled(config, workload):
    """A smaller fuzz: a quiesce/snapshot/restore split agrees across
    the drivers at the boundary and at the end, and a sampled run keeps
    the invariants."""
    program = build_workload(workload)
    trace = workload_trace(workload, FUZZ_TOTAL)
    width = config.backend.allocate_width
    boundaries, finals = {}, {}
    for cycle_by_cycle in (True, False):
        first = OoOCore(config, program, trace, seed=SEED)
        first.run(FUZZ_TOTAL // 2, cycle_by_cycle=cycle_by_cycle)
        first.quiesce()
        boundaries[cycle_by_cycle] = first.snapshot()
        second = OoOCore(config, program, trace, seed=SEED)
        second.restore(boundaries[cycle_by_cycle])
        second.run(FUZZ_TOTAL, cycle_by_cycle=cycle_by_cycle)
        check_invariants(second, width)
        finals[cycle_by_cycle] = fingerprint(second)
    assert boundaries[False] == boundaries[True]
    assert finals[False] == finals[True]

    plan = SamplingPlan(intervals=3, period=1_000, detailed_warmup=100,
                        measure=400)
    result = SamplingSimulator(config, seed=SEED).run(
        workload, plan, program=program, trace=trace)
    assert result.instructions > 0
    assert result.counters.get("cycle_cap_hit", 0) == 0
    assert result.counters.get("retire_out_of_order", 0) == 0
    stack_from_result(result, config).check()
