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


def check_geometry(size: int, line: int, assoc: int,
                   names: tuple[str, str, str] = ("size", "line", "assoc")
                   ) -> None:
    """Refuse a geometry :class:`Cache` cannot index, naming the rule's
    arguments as the caller calls them (*names*).

    The line size is a power of two, the size a positive multiple of
    line × associativity, and the number of sets a power of two.
    """
    size_name, line_name, assoc_name = names
    if line < 1 or line & (line - 1):
        raise ValueError(f"{line_name} must be a power of two, got {line!r}")
    if assoc < 1:
        raise ValueError(f"{assoc_name} must be at least 1, got {assoc!r}")
    sets, rem = divmod(size, line * assoc)
    if rem or sets < 1:
        raise ValueError(
            f"{size_name} must be a positive multiple of {line_name} * "
            f"{assoc_name} ({line * assoc}), got {size!r}")
    if sets & (sets - 1):
        raise ValueError(
            f"{size_name} / ({line_name} * {assoc_name}) sets must be a "
            f"power of two, got {sets}")


class Cache:
    """Tag-only set-associative cache with LRU replacement."""

    def __init__(self, size: int = 32 * 1024, line: int = 32, assoc: int = 1,
                 name: str = "cache"):
        check_geometry(size, line, assoc)
        self.name = name
        self.line = line
        self.assoc = assoc
        self.num_sets = size // (line * assoc)
        self._set_mask = self.num_sets - 1
        self._line_shift = line.bit_length() - 1
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
