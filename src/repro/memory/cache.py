"""Set-associative cache timing model.

Caches here answer a single question per access: how many cycles until the
data is available? The model tracks tags with true LRU, supports banking
(used by the I-cache), and chains misses to the next level. Contents are
not stored — the functional emulator owns data values — so the model is a
pure timing structure, which is exactly what Scarab's cache model provides
to its frontend.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import CacheConfig
from repro.common.statistics import StatGroup

__all__ = ["Cache", "CacheHierarchy"]


class Cache:
    """One cache level (tag store + LRU, latency accounting)."""

    def __init__(self, config: CacheConfig,
                 next_level: Optional["Cache"] = None,
                 miss_latency: int = 200) -> None:
        self.config = config
        self.next_level = next_level
        self.miss_latency = miss_latency  # used when there is no next level
        self.num_sets = config.num_sets
        self._tags: List[List[int]] = [[] for _ in range(self.num_sets)]
        self._lru: List[List[int]] = [[] for _ in range(self.num_sets)]
        self._clock = 0
        self.stats = StatGroup(config.name)
        self._offset_shift = config.line_bytes.bit_length() - 1
        self._hit_latency = config.hit_latency
        self._c_accesses = self.stats.counter("accesses")
        self._c_writes = self.stats.counter("writes")
        self._c_hits = self.stats.counter("hits")
        self._c_misses = self.stats.counter("misses")
        self._c_evictions = self.stats.counter("evictions")

    def _set_index(self, line: int) -> int:
        return line % self.num_sets

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU or allocating."""
        line = address >> self._offset_shift
        return line in self._tags[line % self.num_sets]

    def access(self, address: int, is_write: bool = False) -> int:
        """Access the line containing ``address``; return total latency."""
        self._clock += 1
        line = address >> self._offset_shift
        set_index = line % self.num_sets
        tags = self._tags[set_index]
        self._c_accesses.value += 1
        if is_write:
            self._c_writes.value += 1
        try:
            slot = tags.index(line)
        except ValueError:
            slot = -1
        if slot >= 0:
            self._c_hits.value += 1
            self._lru[set_index][slot] = self._clock
            return self._hit_latency
        self._c_misses.value += 1
        if self.next_level is not None:
            fill_latency = self.next_level.access(address, is_write)
        else:
            fill_latency = self.miss_latency
        self._fill(line, set_index)
        return self._hit_latency + fill_latency

    def _fill(self, line: int, set_index: int) -> None:
        tags = self._tags[set_index]
        lru = self._lru[set_index]
        if len(tags) >= self.config.associativity:
            victim = lru.index(min(lru))
            tags[victim] = line
            lru[victim] = self._clock
            self._c_evictions.value += 1
        else:
            tags.append(line)
            lru.append(self._clock)

    def flush(self) -> None:
        self._tags = [[] for _ in range(self.num_sets)]
        self._lru = [[] for _ in range(self.num_sets)]

    def snapshot(self) -> dict:
        return {
            "tags": [list(s) for s in self._tags],
            "lru": [list(s) for s in self._lru],
            "clock": self._clock,
            "stats": self.stats.state(),
        }

    def restore(self, state: dict) -> None:
        self._tags = [list(s) for s in state["tags"]]
        self._lru = [list(s) for s in state["lru"]]
        self._clock = state["clock"]
        self.stats.load_state(state["stats"])

    @property
    def miss_rate(self) -> float:
        return self.stats.rate("misses", "accesses")


class CacheHierarchy:
    """I-cache + D-cache over a shared L2 and LLC, backed by DRAM timing."""

    def __init__(self, memory_config, dram=None) -> None:
        from repro.memory.dram import Dram  # local import avoids a cycle
        self.dram = dram if dram is not None else Dram(memory_config.dram)
        self.llc = Cache(memory_config.llc, next_level=None)
        self.llc.miss_latency = 0  # DRAM latency added explicitly below
        self.l2 = Cache(memory_config.l2, next_level=self.llc)
        self.icache = Cache(memory_config.icache, next_level=self.l2)
        self.dcache = Cache(memory_config.dcache, next_level=self.l2)

    def snapshot(self) -> dict:
        return {
            "icache": self.icache.snapshot(),
            "dcache": self.dcache.snapshot(),
            "l2": self.l2.snapshot(),
            "llc": self.llc.snapshot(),
            "dram": self.dram.snapshot(),
        }

    def restore(self, state: dict) -> None:
        self.icache.restore(state["icache"])
        self.dcache.restore(state["dcache"])
        self.l2.restore(state["l2"])
        self.llc.restore(state["llc"])
        self.dram.restore(state["dram"])

    def ifetch(self, address: int, cycle: int = 0) -> int:
        latency = self._access(self.icache, address, cycle, is_write=False)
        # next-line instruction prefetch: fill the following line without
        # charging the frontend (standard in the kind of aggressive cores
        # the paper baselines against)
        next_line = address + self.icache.config.line_bytes
        if not self.icache.probe(next_line):
            self._access(self.icache, next_line, cycle, is_write=False)
        return latency

    def dload(self, address: int, cycle: int = 0) -> int:
        return self._access(self.dcache, address, cycle, is_write=False)

    def dstore(self, address: int, cycle: int = 0) -> int:
        return self._access(self.dcache, address, cycle, is_write=True)

    def _access(self, first: Cache, address: int, cycle: int,
                is_write: bool) -> int:
        llc_miss_cell = self.llc._c_misses
        llc_misses_before = llc_miss_cell.value
        latency = first.access(address, is_write)
        if llc_miss_cell.value != llc_misses_before:
            latency += self.dram.access(address, cycle)
        return latency
