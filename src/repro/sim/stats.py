"""Timing-simulation statistics: everything Tables 3 and 4 report.

Percentages follow the paper's footnotes: "% times <buffer/unit> is full,
ratio to the final commit cycle"; IPC "excluding annulled" instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# repro.core.serde is imported lazily inside to_dict/from_dict: importing
# the core package at module level would close an import cycle
# (core -> sched -> transform -> profilefb -> sim).
from .branch_pred import PredictorStats
from .cache import CacheStats

#: Flat scalar fields shared by :meth:`SimStats.to_dict`/``from_dict``.
_SCALAR_FIELDS = (
    "cycles", "committed", "annulled", "dispatched",
    "fetch_stall_cycles", "icache_stall_cycles", "mispredict_events",
    "indirect_stall_events", "wrong_path_squashed",
    "fence_stall_cycles", "fence_events",
)


@dataclass
class SimStats:
    """Results of one timing-simulation run."""

    cycles: int = 0
    committed: int = 0            # committed instructions excluding annulled
    annulled: int = 0
    dispatched: int = 0

    #: cycles each reservation buffer was full, keyed "br"/"ldst"/"alu"/"fp"
    queue_full_cycles: dict[str, int] = field(default_factory=dict)
    #: cycles each unit class had every unit busy, keyed "alu"/"ldst"/"sft"/
    #: "fpadd"/"fpmul"/"fpdiv"/"br"
    unit_full_cycles: dict[str, int] = field(default_factory=dict)
    #: total issues per unit class (utilization numerator)
    unit_issues: dict[str, int] = field(default_factory=dict)

    fetch_stall_cycles: int = 0    # cycles fetch was blocked (mispredict/jr)
    icache_stall_cycles: int = 0
    mispredict_events: int = 0
    indirect_stall_events: int = 0
    #: wrong-path instructions dispatched and squashed (only non-zero when
    #: the TimingSim runs with model_wrong_path=True)
    wrong_path_squashed: int = 0
    #: cycles dispatch was blocked draining behind a ``fence`` barrier
    fence_stall_cycles: int = 0
    #: fences dispatched (the safety-cost denominator for the safe scheme)
    fence_events: int = 0

    predictor: PredictorStats = field(default_factory=PredictorStats)
    icache: CacheStats = field(default_factory=CacheStats)
    dcache: CacheStats = field(default_factory=CacheStats)

    @property
    def ipc(self) -> float:
        """Instructions per cycle, excluding annulled (Table 4 note 7)."""
        return self.committed / self.cycles if self.cycles else 0.0

    def queue_full_pct(self, name: str) -> float:
        """Table 3: % of commit cycles the named reservation buffer was full."""
        if not self.cycles:
            return 0.0
        return 100.0 * self.queue_full_cycles.get(name, 0) / self.cycles

    def unit_full_pct(self, name: str) -> float:
        """Table 4: % of commit cycles the named unit class was saturated."""
        if not self.cycles:
            return 0.0
        return 100.0 * self.unit_full_cycles.get(name, 0) / self.cycles

    def to_dict(self) -> dict:
        """JSON-serializable form: exact round-trip via :meth:`from_dict`.

        Used by the evaluation engine's artifact cache and the ``tables
        --json`` machine-readable output.
        """
        from ..core import serde
        d = serde.dump_fields(self, _SCALAR_FIELDS)
        d.update(
            queue_full_cycles=dict(self.queue_full_cycles),
            unit_full_cycles=dict(self.unit_full_cycles),
            unit_issues=dict(self.unit_issues),
            predictor=self.predictor.to_dict(),
            icache=self.icache.to_dict(),
            dcache=self.dcache.to_dict(),
        )
        return serde.stamp(d)

    @classmethod
    def from_dict(cls, d: dict) -> "SimStats":
        """Inverse of :meth:`to_dict` (schema-version checked)."""
        from ..core import serde
        serde.check(d, "SimStats")
        return cls(
            queue_full_cycles=dict(d["queue_full_cycles"]),
            unit_full_cycles=dict(d["unit_full_cycles"]),
            unit_issues=dict(d["unit_issues"]),
            predictor=PredictorStats.from_dict(d["predictor"]),
            icache=CacheStats.from_dict(d["icache"]),
            dcache=CacheStats.from_dict(d["dcache"]),
            **serde.load_fields(d, _SCALAR_FIELDS),
        )

    def summary(self) -> str:
        lines = [
            f"cycles               {self.cycles}",
            f"committed            {self.committed}",
            f"annulled             {self.annulled}",
            f"IPC                  {self.ipc:.3f}",
            f"branch accuracy      {self.predictor.accuracy * 100:.2f}%",
            f"mispredict events    {self.mispredict_events}",
            f"fetch stall cycles   {self.fetch_stall_cycles}",
            "queue full %         " + "  ".join(
                f"{k}={self.queue_full_pct(k):.2f}"
                for k in ("br", "ldst", "alu", "fp")),
            "unit full %          " + "  ".join(
                f"{k}={self.unit_full_pct(k):.2f}"
                for k in ("alu", "ldst", "sft")),
        ]
        return "\n".join(lines)
