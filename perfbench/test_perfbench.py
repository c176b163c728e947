"""Self-tests of the benchmark itself (not of the simulator).

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload once at its smallest size through ``run.py`` and
checks the result line against ``BENCHMARK.json``; checks that the
correctness gate fails on a tampered reference; and checks that the
service latency poller polls at its fixed interval and never through
``ServiceClient.wait()``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from perfbench import env

env.import_repro()

BENCHMARK = json.loads((env.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workspace():
    """A benchmark workspace inside the checkout; the environment it
    pins is restored afterwards."""
    saved = dict(os.environ)
    ws = env.Workspace()
    try:
        yield ws
    finally:
        ws.close()
        os.environ.clear()
        os.environ.update(saved)


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=env.ROOT, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"]
                                      for w in BENCHMARK["workloads"]])
def test_workload_smoke_prints_every_metric_with_unit(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert metric["value"] > 0
    # each percentile is printed with its sample count
    assert re.search(r"p50 [0-9.]+ s, p90 [0-9.]+ s .*\d+ samples.*, "
                     r"\d+ of \d+ beyond p90", proc.stdout)
    assert re.search(r"failure share [0-9.]+", proc.stdout)


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("sampled-pairs", 1)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    # the sampled pass is accounted in full: self times + remainder
    assert "unattributed" in proc.stdout


def test_gate_fails_on_tampered_reference(workspace):
    from perfbench import sampled
    from perfbench.digest import Gate, load_reference
    workspace.fresh_cache("tampered")
    reference = load_reference()
    label = sampled.cells(0)[0][0]
    ipc, half_width = reference[label]
    reference[label] = [ipc * 1.01, half_width]
    gate = Gate(reference)
    sampled.run_pass(0, gate, "cold")
    assert not gate.correct
    assert gate.failed == 1 and gate.attempted == len(sampled.cells(0))
    assert label in gate.errors[0]


def test_latency_poller_never_uses_client_backoff(workspace, monkeypatch):
    from perfbench import service
    from repro.service.client import ServiceClient

    def no_wait(*args, **kwargs):
        raise AssertionError("ServiceClient.wait() used for latency")

    sleeps = []
    real_sleep = service.time.sleep

    def recording_sleep(seconds):
        sleeps.append(seconds)
        real_sleep(seconds)

    workspace.fresh_cache("poller")
    daemon = service.Daemon()
    try:
        # only the closed loop is watched: stopping the daemon sleeps too
        with monkeypatch.context() as patch:
            patch.setattr(ServiceClient, "wait", no_wait)
            patch.setattr(service.time, "sleep", recording_sleep)
            _wall, latencies, statuses = service.run_sequence(
                daemon, service.requests(0)[:3])
    finally:
        daemon.stop()
    assert statuses == ["done"] * 3
    assert sleeps and set(sleeps) == {service.POLL_INTERVAL}
    assert all(t > 0 for t in latencies)
