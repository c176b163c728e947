"""Tests for the recorded pipeline timeline and the ASCII plot helpers.

The timeline is one path: an ``EventRecorder`` records the core's
events, ``replay_timelines`` rebuilds per-uop lifecycles, and
``render_timeline`` draws a cycle window of them as text.
"""

from collections import Counter

import pytest

from repro.analysis.plots import bar_chart, grouped_bar_chart, sparkline
from repro.common.config import small_core_config
from repro.core.ooo_core import OoOCore
from repro.obs import (
    EV_FETCH,
    EV_RESOLVE,
    EV_RESTORE,
    EV_RETIRE,
    EV_SQUASH,
    EventRecorder,
    render_timeline,
    replay_timelines,
)
from repro.workloads.profiles import build_workload, workload_trace


def recorded_run(workload="leela", total=4_000, apf=False,
                 cycle_by_cycle=False):
    config = small_core_config()
    if apf:
        config = config.with_apf()
    program = build_workload(workload)
    trace = workload_trace(workload, total)
    core = OoOCore(config, program, trace, seed=5)
    recorder = EventRecorder()
    core.attach_obs(recorder)
    core.run(total, cycle_by_cycle=cycle_by_cycle)
    assert recorder.dropped == 0
    return core, list(recorder.events)


def recovery_cycles(events):
    return [e[1] for e in events if e[0] == EV_RESOLVE and e[3]]


def restore_cycles(events):
    return [e[1] for e in events if e[0] == EV_RESTORE]


class TestTimeline:
    def test_records_all_lifecycle_stages(self):
        _, events = recorded_run()
        lives = replay_timelines(events)
        retired = [life for life in lives.values()
                   if life.retire_cycle is not None]
        assert retired
        sample = retired[len(retired) // 2]
        assert sample.fetch_cycle <= sample.allocate_cycle
        assert sample.allocate_cycle <= sample.retire_cycle

    def test_squashes_recorded_on_recovery(self):
        _, events = recorded_run("leela")
        assert recovery_cycles(events)
        squashed = [life for life in replay_timelines(events).values()
                    if life.squash_cycle is not None]
        assert squashed
        # a squashed uop never retires
        assert all(life.retire_cycle is None for life in squashed)

    def test_restored_uops_marked(self):
        _, events = recorded_run("leela", apf=True)
        restores = restore_cycles(events)
        assert restores
        assert any(life.restored
                   for life in replay_timelines(events).values())
        # the text view flags restored rows with '+' in the margin
        at = restores[0]
        text = render_timeline(events, at, at + 4, max_rows=100_000)
        margins = [line.split("|")[0] for line in text.splitlines()[1:]]
        assert any("+" in margin for margin in margins)

    def test_render_produces_rows(self):
        _, events = recorded_run()
        at = recovery_cycles(events)[0]
        text = render_timeline(events, at - 4, at + 12)
        lines = text.splitlines()
        assert len(lines) > 3
        assert "recoveries" in lines[0]
        # every row lane has the same width: one glyph per window cycle
        widths = {len(line.split("|")[1]) for line in lines[1:]
                  if "|" in line}
        assert widths == {17}

    def test_render_rejects_empty_window(self):
        _, events = recorded_run()
        with pytest.raises(ValueError):
            render_timeline(events, 10, 10)

    def test_frontend_latency_histogram(self):
        core, events = recorded_run(apf=True)
        hist = Counter(life.allocate_cycle - life.fetch_cycle
                       for life in replay_timelines(events).values()
                       if life.allocate_cycle is not None)
        assert hist
        depth = core.config.frontend.depth
        # the dominant frontend latency is the pipe depth; restored uops
        # appear at small latencies
        assert any(delta >= depth for delta in hist)
        assert min(hist) < depth

    def test_tracing_does_not_change_timing(self):
        plain_config = small_core_config()
        program = build_workload("xz")
        trace = workload_trace("xz", 3_000)
        core_plain = OoOCore(plain_config, program, trace, seed=5)
        core_plain.run(3_000)
        core_traced = OoOCore(plain_config, program, trace, seed=5)
        core_traced.attach_obs(EventRecorder())
        core_traced.run(3_000)
        assert core_plain.now == core_traced.now


def timeline_snapshot(events):
    return {
        seq: (life.fetch_cycle, life.allocate_cycle, life.done_cycle,
              life.retire_cycle, life.squash_cycle, life.wrong_path,
              life.restored, life.is_branch, life.mispredict)
        for seq, life in replay_timelines(events).items()
    }


class TestTimelineDriverEquivalence:
    """The replayed timelines must be identical under both loop drivers
    — on a mispredict-heavy workload, where squash/restore traffic is
    densest."""

    # deepsjeng/leela are the mispredict-heavy picks (highest MPKI of the
    # small set); APF on so restore events are exercised too
    @pytest.mark.parametrize("workload", ["deepsjeng", "leela"])
    @pytest.mark.parametrize("apf", [False, True])
    def test_identical_timelines_both_drivers(self, workload, apf):
        snapshots = {}
        for cycle_by_cycle in (True, False):
            _, events = recorded_run(workload, apf=apf,
                                     cycle_by_cycle=cycle_by_cycle)
            snapshots[cycle_by_cycle] = (timeline_snapshot(events),
                                         recovery_cycles(events),
                                         restore_cycles(events))
        assert snapshots[False] == snapshots[True]

    def test_squash_suffix_matches_brute_force(self):
        """``replay_timelines`` squashes by popping the ``seq >
        after_seq`` suffix of its live window; a brute-force scan over
        every uop fetched so far must squash exactly the same uops on
        the same cycles."""
        _, events = recorded_run("deepsjeng")
        assert recovery_cycles(events), "need mispredicts for this test"
        fetched, retired, squashed = [], set(), {}
        for event in events:
            kind = event[0]
            if kind == EV_FETCH:
                fetched.append(event[2])
            elif kind == EV_RETIRE:
                retired.add(event[2])
            elif kind == EV_SQUASH:
                for seq in fetched:
                    if seq > event[2] and seq not in retired \
                            and seq not in squashed:
                        squashed[seq] = event[1]
        assert squashed
        lives = replay_timelines(events)
        assert {seq: life.squash_cycle for seq, life in lives.items()
                if life.squash_cycle is not None} == squashed
        # everything fetched either retired, was squashed, or is still in
        # flight at end-of-run; the three sets partition the timelines
        in_flight = {seq for seq, life in lives.items()
                     if life.retire_cycle is None
                     and life.squash_cycle is None}
        assert squashed.keys().isdisjoint(retired)
        assert len(squashed) + len(retired) + len(in_flight) \
            == len(lives) == len(fetched)


class TestPlots:
    def test_bar_chart_basic(self):
        text = bar_chart({"a": 1.05, "b": 1.10}, title="T", baseline=1.0)
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 3
        # larger value gets the longer bar
        assert lines[2].count("█") > lines[1].count("█")

    def test_bar_chart_negative_marked(self):
        text = bar_chart({"up": 1.04, "down": 0.96}, baseline=1.0)
        assert "<" in text

    def test_bar_chart_empty(self):
        assert bar_chart({}, title="empty") == "empty"

    def test_grouped_chart_covers_all_categories(self):
        text = grouped_bar_chart(
            {"apf": {"x": 1.05, "y": 1.02}, "dpip": {"x": 0.99}})
        assert "x:" in text and "y:" in text
        assert "apf" in text and "dpip" in text

    def test_sparkline(self):
        line = sparkline([1, 2, 3, 2, 1])
        assert len(line) == 5
        assert line[2] == "█"
        assert sparkline([]) == ""
        assert len(set(sparkline([5, 5, 5]))) == 1
