"""Observability-layer contracts (``repro.obs``).

Three invariants anchor the layer:

1. Attaching a sink never changes simulation results — cycles, IPC, and
   the full statistics snapshot are bit-identical with and without
   observation, under both loop drivers.
2. Both loop drivers emit *identical* event streams: events fire only at
   state changes, and the skipping loop never skips a cycle in which a
   state change happens.
3. The stale cycle-cap regression: ``run()`` resets ``cycle_cap_hit`` so
   a capped interval does not taint every later run on the same core.
"""

import pytest

from repro.common.config import small_core_config
from repro.core.ooo_core import OoOCore
from repro.obs import (
    EV_ALLOC,
    EV_FETCH,
    EV_RETIRE,
    EV_SQUASH,
    EVENT_NAMES,
    EventRecorder,
    ObsSink,
    replay_timelines,
)
from repro.workloads.profiles import build_workload, workload_trace

TOTAL = 4_000
SEED = 7
CONFIGS = {
    "base": lambda: small_core_config(),
    "apf": lambda: small_core_config().with_apf(),
}


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


def run_recorded(workload, config_key, cycle_by_cycle):
    core = make_core(workload, config_key)
    recorder = EventRecorder()
    core.attach_obs(recorder)
    core.run(TOTAL, cycle_by_cycle=cycle_by_cycle)
    return core, recorder


@pytest.mark.parametrize("workload", ["leela", "tc"])
@pytest.mark.parametrize("config_key", ["base", "apf"])
class TestObservationIsFree:
    def test_enabled_vs_disabled_bit_identical(self, workload, config_key):
        """Satellite 5: an attached recorder must not perturb timing or
        statistics on either driver."""
        for cycle_by_cycle in (False, True):
            plain = make_core(workload, config_key)
            plain.run(TOTAL, cycle_by_cycle=cycle_by_cycle)
            observed, recorder = run_recorded(workload, config_key,
                                              cycle_by_cycle)
            assert recorder.emitted > 0
            assert fingerprint(observed) == fingerprint(plain)

    def test_both_drivers_emit_identical_streams(self, workload,
                                                 config_key):
        """The tentpole contract: reference and skipping loops produce
        the same events, in the same order, on the same cycles — and the
        same occupancy histograms."""
        _, ref = run_recorded(workload, config_key, cycle_by_cycle=True)
        _, skip = run_recorded(workload, config_key, cycle_by_cycle=False)
        assert list(skip.events) == list(ref.events)
        assert skip.emitted == ref.emitted
        for key in EventRecorder.OCCUPANCY_KEYS:
            assert skip.occupancy[key].as_dict() \
                == ref.occupancy[key].as_dict()


class TestEventStreamShape:
    def test_stream_is_consistent(self):
        core, recorder = run_recorded("leela", "base",
                                      cycle_by_cycle=False)
        events = list(recorder.events)
        kinds = {event[0] for event in events}
        assert kinds <= set(EVENT_NAMES)
        retires = [e for e in events if e[0] == EV_RETIRE]
        assert len(retires) == core.retired
        # cycles are monotonically non-decreasing across the stream
        cycles = [e[1] for e in events]
        assert cycles == sorted(cycles)
        # every retired seq was fetched and allocated
        lives = replay_timelines(events)
        for event in retires:
            life = lives[event[2]]
            assert life.allocate_cycle is not None
            assert life.retire_cycle is not None
            assert life.squash_cycle is None
        # every squash leaves no younger live uop retired later
        squashes = [e for e in events if e[0] == EV_SQUASH]
        assert squashes, "leela@seed7 should mispredict"
        for life in lives.values():
            assert (life.retire_cycle is None) \
                or (life.squash_cycle is None)

    def test_ring_overflow_drops_oldest(self):
        core = make_core("leela", "base")
        recorder = EventRecorder(capacity=100)
        core.attach_obs(recorder)
        core.run(TOTAL)
        assert len(recorder.events) == 100
        assert recorder.dropped == recorder.emitted - 100
        assert recorder.dropped > 0
        # truncated streams still replay without blowing up
        replay_timelines(recorder.events)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventRecorder(capacity=0)
        with pytest.raises(ValueError):
            EventRecorder(capacity=-5)

    def test_occupancy_rows(self):
        _, recorder = run_recorded("leela", "apf", cycle_by_cycle=False)
        rows = recorder.occupancy_rows()
        names = [row[0] for row in rows]
        assert set(names) <= set(EventRecorder.OCCUPANCY_KEYS)
        assert "rob" in names and "ftq" in names
        for _name, p50, p90, mean, samples in rows:
            assert p50 <= p90
            assert samples > 0
            assert mean >= 0

    def test_detach_restores_silence(self):
        core = make_core("leela", "base")
        recorder = EventRecorder()
        core.attach_obs(recorder)
        core.detach_obs()
        core.run(TOTAL)
        assert recorder.emitted == 0

    def test_base_sink_is_noop(self):
        """Any ObsSink subclass can ignore callbacks it doesn't need."""
        core = make_core("leela", "base")
        core.attach_obs(ObsSink())
        core.run(TOTAL)
        assert core.retired == TOTAL


class TestReplayMatchesStream:
    def test_alloc_and_fetch_pair_up(self):
        _, recorder = run_recorded("leela", "base", cycle_by_cycle=False)
        events = list(recorder.events)
        fetched = {e[2] for e in events if e[0] == EV_FETCH}
        allocated = [e for e in events if e[0] == EV_ALLOC]
        assert allocated
        for event in allocated:
            assert event[2] in fetched


class TestCycleCapReset:
    def test_cap_verdict_does_not_leak_into_next_run(self):
        """Regression (satellite 1): a capped run() left cycle_cap_hit
        True forever, so every later interval on the same core — the
        sampling simulator reuses one core across intervals — reported a
        stale cap."""
        core = make_core("leela", "base")
        core.run(TOTAL, max_cycles=40)
        assert core.cycle_cap_hit
        assert core.stats.counters["cycle_cap_hit"] == 1
        # same core, fresh run(): plenty of cycle budget, clean verdict
        core.run(TOTAL)
        assert not core.cycle_cap_hit
        assert core.retired == TOTAL
        # the lifetime counter still remembers the one capped run
        assert core.stats.counters["cycle_cap_hit"] == 1
