"""Regenerate ``perfbench/reference.json``, the correctness gate's digest.

    python3 perfbench/make_reference.py

Simulates every cell any ``--seed`` can issue -- the fig8-campaign
cells, the service-sweeps leaf universe and the sampled-pairs cells, for
each simulation seed of the pool -- directly through ``Simulator`` and
``SamplingSimulator``, and records each cell's outcome under its label.
Run it only when simulated behaviour is meant to change, and say so.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import env  # noqa: E402
from perfbench.digest import (REFERENCE, SEED_POOL, dense_outcome,  # noqa
                              sampled_outcome, sim_seed)


def _outcome(task: Tuple) -> Tuple[str, list]:
    label, workload, spec, warmup, measure, sseed, sampling = task
    from repro.analysis.harness import serialize_result
    from repro.core.simulator import Simulator
    from repro.sampling import SamplingSimulator
    from repro.service.requests import config_from_spec
    # the config is built here, not pickled: a pickled config's string
    # constants lose their identity, and the core compares them with
    # ``is`` (``FetchScheme.BANKED``), which changes simulated cycles
    config = config_from_spec(spec)
    if sampling is None:
        result = Simulator(config, seed=sseed).run(workload, warmup, measure)
        return label, dense_outcome(serialize_result(result))
    result = SamplingSimulator(config, seed=sseed).run(workload, sampling)
    return label, sampled_outcome(serialize_result(result))


def tasks() -> List[Tuple]:
    """One task per distinct cell over every seed of the pool; configs
    travel as ``repro submit`` specs."""
    from perfbench import fig8, sampled, service
    from repro.service.requests import config_from_spec
    from repro.workloads.profiles import ALL_NAMES
    plan = sampled.plan()
    specs = [{}, {"apf": {}}]
    out = []
    for seed in range(SEED_POOL):
        sseed = sim_seed(seed)
        for label, job in fig8.cells(seed):
            spec = specs[job.config.apf.enabled]
            assert config_from_spec(spec) == job.config
            out.append((label, job.workload, spec, job.warmup, job.measure,
                        sseed, None))
        out.extend((service.leaf_label(w, name, sseed), w, spec,
                    service.WARMUP, service.MEASURE, sseed, None)
                   for w in ALL_NAMES for name, spec in service.SPECS.items())
        for label, workload, config in sampled.cells(seed):
            spec = specs[config.apf.enabled]
            assert config_from_spec(spec) == config
            out.append((label, workload, spec, 0, 0, sseed, plan))
    return out


def write_reference(outcomes: Dict[str, list]) -> None:
    """One outcome per line, sorted, so a diff shows which cells moved."""
    lines = [f"{json.dumps(label)}: {json.dumps(outcome)}"
             for label, outcome in sorted(outcomes.items())]
    with REFERENCE.open("w") as handle:
        handle.write('{"pool": %d, "outcomes": {\n' % SEED_POOL)
        handle.write(",\n".join(lines))
        handle.write("\n}}\n")


def main() -> int:
    env.import_repro()
    os.environ["PYTHONPATH"] = env.child_env()["PYTHONPATH"]
    todo = tasks()
    outcomes: Dict[str, list] = {}
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(env.NPROC, mp_context=context) as pool:
        for label, outcome in pool.map(_outcome, todo, chunksize=4):
            outcomes[label] = outcome
    write_reference(outcomes)
    print(f"wrote {len(outcomes)} outcomes to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
