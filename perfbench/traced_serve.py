"""``repro serve`` with the benchmark's span wrappers installed.

    python3 -m perfbench.traced_serve SPANS_DIR [repro serve options]

Installs the wrappers before the scheduler forks any worker, runs the
daemon until it is interrupted, then writes the daemon's spans to
SPANS_DIR (workers write their own after every job).
"""

import sys


def main(argv) -> int:
    from perfbench import spans
    from repro import cli
    recorder = spans.Recorder(argv[0])
    spans.install(recorder)
    try:
        return cli.main(["serve", *argv[1:]])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
