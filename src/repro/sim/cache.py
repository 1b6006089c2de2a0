"""Set-associative cache model (32-KB split I/D caches by default).

The paper charges a flat 6-cycle miss penalty (Table 2).  The model tracks
tags only — data correctness is the functional executor's job — and reports
hit/miss so the timing pipeline can add the penalty.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.misses / self.accesses if self.accesses else 1.0

    def to_dict(self) -> dict:
        """JSON-serializable form (engine artifact-cache payload)."""
        return {"accesses": self.accesses, "misses": self.misses}

    @classmethod
    def from_dict(cls, d: dict) -> "CacheStats":
        """Inverse of :meth:`to_dict`."""
        return cls(accesses=d["accesses"], misses=d["misses"])


class Cache:
    """Tag-only set-associative cache with LRU replacement."""

    def __init__(self, size: int = 32 * 1024, line: int = 32, assoc: int = 1,
                 name: str = "cache"):
        if size % (line * assoc):
            raise ValueError("size must be a multiple of line*assoc")
        self.name = name
        self.line = line
        self.assoc = assoc
        self.num_sets = size // (line * assoc)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self._set_mask = self.num_sets - 1
        self._line_shift = line.bit_length() - 1
        if (1 << self._line_shift) != line:
            raise ValueError("line size must be a power of two")
        # Each set is a list of tags in LRU order (MRU last).
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def access(self, addr: int) -> bool:
        """Access *addr*; returns True on hit.  Misses allocate."""
        self.stats.accesses += 1
        block = addr >> self._line_shift
        idx = block & self._set_mask
        tag = block >> (self._set_mask.bit_length())
        ways = self._sets[idx]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            return True
        self.stats.misses += 1
        ways.append(tag)
        if len(ways) > self.assoc:
            ways.pop(0)
        return False

    def reset(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()
