"""service-sweeps: one closed-loop client driving a ``repro serve`` daemon.

The daemon runs in its own process with ``nproc`` slots, the journal
and tracing on as shipped. The client submits a seeded sequence of
sweep/compare requests at short windows, one at a time, each after the
previous one finished (closed loop: many-user load is out of scope).
Every request carries at least one leaf no earlier request ran and
shares its other leaves with earlier requests, so cache reads and
writes mix in one stream. This is the only workload where admission,
DAG expansion, single-flight claims, the journal, the tracer and
telemetry are a visible share of the time.

The warm pass re-submits the same sequence to a daemon restarted on
the filled cache; each restart replays the previous daemon's journal.

Latency is read by polling ``/status/<id>`` at a fixed short interval,
never through ``ServiceClient.wait()``, whose backoff would overstate
it by up to two seconds.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import env
from perfbench.digest import Gate, sim_seed

NAME = "service-sweeps"
WARMUP, MEASURE = 1_500, 1_500
REQUESTS = 110
#: restarts on the filled cache per run; each is a set-up sample and
#: carries one warm pass
WARM_RESTARTS = 5
#: fixed /status poll interval. One call costs the client and the
#: daemon about 1.6 ms of CPU each; polling faster would take a share of
#: the two cores from the workers, slower would quantise latency more.
POLL_INTERVAL = 0.01

#: the config specs leaves draw from (the ``repro submit`` spec language)
SPECS: Dict[str, dict] = {
    "base": {},
    "apf": {"apf": {}},
    "apf_d11": {"apf": {"depth": 11}},
    "apf_d15": {"apf": {"depth": 15}},
    "apf_b2": {"apf": {"buffers": 2}},
    "apf_timeshare": {"apf": {"scheme": "timeshare"}},
    "apf_dualport": {"apf": {"scheme": "dualport"}},
    "dpip": {"apf": {"mode": "dpip"}},
    "perceptron": {"predictor": "perceptron"},
    "gshare": {"predictor": "gshare"},
}


def leaf_label(workload: str, spec: str, sseed: int) -> str:
    return f"svc/{workload}/{spec}/{WARMUP}+{MEASURE}/s{sseed}"


def requests(seed: int) -> List[Tuple[dict, List[Tuple[str, str]]]]:
    """The seeded request sequence: ``(document, [(workload, spec)])``.

    Each request takes one or two leaves nobody ran yet; its remaining
    leaves are ones earlier requests ran.
    """
    from repro.workloads.profiles import ALL_NAMES
    rng = random.Random(f"service-sequence/{seed}")
    unused = [(w, s) for w in ALL_NAMES for s in SPECS]
    rng.shuffle(unused)
    done = set()
    windows = {"warmup": WARMUP, "measure": MEASURE, "seed": sim_seed(seed)}
    out = []
    for index in range(REQUESTS):
        workload, spec = unused.pop()
        fresh = [workload]
        spare = len(unused) - (REQUESTS - index - 1)
        if spare > 0 and rng.random() < 0.35:
            # a second fresh leaf on the same config keeps both slots busy
            partner = next((w for w, s in unused if s == spec), None)
            if partner is not None:
                unused.remove((partner, spec))
                fresh.append(partner)
        old_workloads = [w for w in ALL_NAMES
                         if (w, spec) in done and w not in fresh]
        old_specs = [s for s in SPECS
                     if s != spec and all((w, s) in done for w in fresh)]
        shape = rng.choice(["sweep-workloads", "sweep-configs", "compare"])
        if shape == "compare" and old_specs:
            other = rng.choice(old_specs)
            extra = [w for w in old_workloads if (w, other) in done]
            names = fresh + rng.sample(extra, min(len(extra),
                                                  rng.randint(0, 2)))
            base, test = rng.sample([spec, other], 2)
            doc = {"kind": "compare", "workloads": names,
                   "base": SPECS[base], "test": SPECS[test], **windows}
            specs = [base, test]
        elif shape == "sweep-configs" and old_specs:
            specs = [spec] + rng.sample(old_specs, min(len(old_specs),
                                                       rng.randint(1, 2)))
            names = fresh
            doc = {"kind": "sweep", "workloads": names,
                   "configs": [{"name": s, "config": SPECS[s]}
                               for s in specs], **windows}
        else:
            names = fresh + rng.sample(old_workloads, min(
                len(old_workloads), rng.randint(0, 3)))
            specs = [spec]
            doc = {"kind": "sweep", "workloads": names,
                   "configs": [{"name": spec, "config": SPECS[spec]}],
                   **windows}
        leaves = [(w, s) for w in names for s in specs]
        done.update(leaves)
        out.append((doc, leaves))
    return out


class Daemon:
    """A ``repro serve`` process on an ephemeral port.

    ``spans_dir`` starts it through :mod:`perfbench.traced_serve`, with
    the span wrappers installed. :attr:`setup_s` is the time from spawn
    to its first ``/healthz`` answer.
    """

    def __init__(self, spans_dir: Optional[Path] = None) -> None:
        from repro.service.client import ServiceClient
        args = ["--port", "0", "--jobs", str(env.NPROC)]
        if spans_dir is None:
            command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            command = [sys.executable, "-m", "perfbench.traced_serve",
                       str(spans_dir), *args]
        self.stderr: List[str] = []
        self._url: Optional[str] = None
        self._listening = threading.Event()
        start = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=env.ROOT,
                                     env=env.child_env(),
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._read_stderr,
                                        daemon=True)
        self._reader.start()
        try:
            if not self._listening.wait(60) or self._url is None:
                raise RuntimeError("daemon did not start: "
                                   + "".join(self.stderr[-5:]))
            self.client = ServiceClient(self._url)
            self.client.healthz()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _read_stderr(self) -> None:
        marker = "listening on "
        for line in self.proc.stderr:
            self.stderr.append(line)
            if marker in line and self._url is None:
                self._url = line.split(marker, 1)[1].split()[0]
                self._listening.set()
        self._listening.set()

    def stop(self) -> None:
        """Interrupt the daemon (it shuts its workers down) and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(10)
        self.proc.stderr.close()


def submit_and_wait(client, doc: dict) -> Tuple[float, dict]:
    """Submit ``doc`` and poll its status at :data:`POLL_INTERVAL` until
    it is terminal; returns ``(latency_s, final status)``."""
    start = time.perf_counter()
    response = client.submit(doc)
    status = response
    while status["status"] == "running":
        time.sleep(POLL_INTERVAL)
        status = client.status(response["request_id"])
    return time.perf_counter() - start, status


def run_sequence(daemon: Daemon, sequence, recorder=None,
                 phase: str = "cold") -> Tuple[float, List[float],
                                               List[str]]:
    """Drive the closed loop; returns ``(wall_s, latencies, statuses)``."""
    span = recorder.start("bench.pass", phase=phase) if recorder else None
    start = time.perf_counter()
    latencies, statuses = [], []
    for doc, _leaves in sequence:
        latency, status = submit_and_wait(daemon.client, doc)
        latencies.append(latency)
        statuses.append(status["status"])
    wall = time.perf_counter() - start
    if span is not None:
        recorder.finish(span)
    return wall, latencies, statuses


class _Verifier:
    """Checks requests: terminal status ``done`` and every leaf payload
    in the pass's cache root matching the reference."""

    def __init__(self, seed: int, gate: Gate) -> None:
        from repro.analysis import harness
        from repro.service.requests import config_from_spec
        self.gate = gate
        self.sseed = sim_seed(seed)
        self._configs = {name: config_from_spec(spec)
                         for name, spec in SPECS.items()}
        self._verdicts: Dict[Tuple[str, str], List[str]] = {}
        self._harness = harness

    def leaf_problems(self, cache_root: Path, workload: str,
                      spec: str) -> List[str]:
        if (workload, spec) not in self._verdicts:
            config = self._configs[spec]
            key = self._harness.result_key(workload, config, WARMUP,
                                           MEASURE, self.sseed)
            path = cache_root / f"{key}.json"
            payload = json.loads(path.read_text()) if path.exists() \
                else None
            self._verdicts[(workload, spec)] = self.gate.problems(
                leaf_label(workload, spec, self.sseed), payload,
                config.backend.allocate_width)
        return self._verdicts[(workload, spec)]

    def check(self, phase: str, cache_root: Path, sequence,
              statuses: List[str]) -> None:
        for index, ((_doc, leaves), status) in enumerate(zip(sequence,
                                                             statuses)):
            problems = [] if status == "done" \
                else [f"request ended {status!r}"]
            for workload, spec in leaves:
                problems.extend(self.leaf_problems(cache_root, workload,
                                                   spec))
            self.gate.record(f"{phase} request {index}", problems)


def cold_pass(ws: env.Workspace, sequence, verifier: _Verifier,
              spans_dir: Optional[Path] = None,
              recorder=None) -> dict:
    """Fresh cache and journal, fresh daemon, the whole sequence."""
    cache_root = ws.fresh_cache("service-cold")
    cpu0 = env.cpu_seconds()
    daemon = Daemon(spans_dir)
    try:
        wall, latencies, statuses = run_sequence(daemon, sequence,
                                                 recorder, "cold")
    finally:
        daemon.stop()
    cpu = env.cpu_seconds() - cpu0
    verifier.check("cold", cache_root, sequence, statuses)
    leaves = {leaf for _doc, seq_leaves in sequence for leaf in seq_leaves}
    return {"wall": wall, "latencies": latencies, "cache_root": cache_root,
            "setup": daemon.setup_s,
            "kips": len(leaves) * (WARMUP + MEASURE) / 1000.0 / cpu}


def warm_pass(cache_root: Path, sequence, verifier: _Verifier,
              spans_dir: Optional[Path] = None,
              recorder=None) -> Tuple[float, float]:
    """Restart on the filled cache; returns ``(setup_s, wall_s)``."""
    os.environ["REPRO_CACHE_DIR"] = str(cache_root)
    daemon = Daemon(spans_dir)
    try:
        wall, _latencies, statuses = run_sequence(daemon, sequence,
                                                  recorder, "warm")
    finally:
        daemon.stop()
    verifier.check("warm", cache_root, sequence, statuses)
    return daemon.setup_s, wall


def measure(ws: env.Workspace, seed: int, seconds: float,
            gate: Gate) -> dict:
    sequence = requests(seed)
    verifier = _Verifier(seed, gate)
    colds = []
    budget_start = time.perf_counter()
    while True:
        colds.append(cold_pass(ws, sequence, verifier))
        if time.perf_counter() - budget_start + colds[-1]["wall"] > seconds:
            break
    setups, warms = [], []
    for _ in range(WARM_RESTARTS):
        setup, wall = warm_pass(colds[-1]["cache_root"], sequence, verifier)
        setups.append(setup)
        warms.append(wall)
    return env.end_to_end(
        f"{NAME}: {len(sequence)} requests per pass, windows "
        f"{WARMUP}+{MEASURE}, {env.NPROC} slots, status poll every "
        f"{POLL_INTERVAL * 1000:g} ms", "cold request latency",
        setups, [cold["wall"] for cold in colds], warms,
        [cold["kips"] for cold in colds],
        [cold["latencies"] for cold in colds],
        extra_rows=[env.summary_row("cold start to /healthz (s)",
                                    [cold["setup"] for cold in colds])])


def traced(ws: env.Workspace, seed: int, gate: Gate, recorder) -> dict:
    """One untraced cold pass, then a traced cold pass and a traced
    warm restart (daemon and client both traced)."""
    from perfbench import spans
    sequence = requests(seed)
    verifier = _Verifier(seed, gate)
    untraced = cold_pass(ws, sequence, verifier)["wall"]
    spans.install(recorder)
    cold = cold_pass(ws, sequence, verifier, recorder.out_dir, recorder)
    warm_pass(cold["cache_root"], sequence, verifier, recorder.out_dir,
              recorder)
    return {"untraced_cold_s": untraced, "traced_cold_s": cold["wall"],
            "busy_wall_s": cold["wall"]}
