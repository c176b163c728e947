"""Where the on-disk caches live.

One cache root holds the harness result cache, the service journal and
the workload store (``workloads/``). ``REPRO_CACHE_DIR`` relocates all of
them together; the default is ``benchmarks/.cache`` in the checkout.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["CACHE_ENV", "cache_root"]

CACHE_ENV = "REPRO_CACHE_DIR"


def cache_root() -> Path:
    """The cache root directory (not created here)."""
    root = os.environ.get(CACHE_ENV)
    if root:
        return Path(root)
    return Path(__file__).resolve().parents[3] / "benchmarks" / ".cache"
