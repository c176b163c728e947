"""Set-up probe: a fresh interpreter that gets ready to submit, then says so.

``python3 -m perfbench.setup_probe WORKLOAD SEED`` (with ``src`` and the
checkout root on ``PYTHONPATH``) imports what a user imports, builds
the workload's jobs, prints ``ready`` and exits. The parent times from
spawning it to reading that line.
"""

import sys


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    from perfbench import fig8, sampled
    {fig8.NAME: fig8.ready, sampled.NAME: sampled.ready}[workload](seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
