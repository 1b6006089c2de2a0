"""Region scheduling: profile-guided global code motion.

The policy layer over the speculation primitives, in the spirit of the
enhanced region scheduler the paper builds on [1] (Allan et al., MICRO-25):
for every branch block with vacant issue slots, operations are speculated
up from the successor blocks — *balanced* across both arms when the branch
is unbiased (paper Figure 2(c)), or *prioritized toward the frequent arm*
when the profile says one path dominates (Figure 3(a)/(c)) — and join-block
operations are duplicated down into the freed arm slots.

"The desirable effect would be to facilitate mechanism in which the
operations from the true branch will be given more priority ..." — this is
where that priority is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.graph import CFG
from ..transform.dce import eliminate_dead_code
from ..transform.speculation import (
    duplicate_into_predecessors, speculate_from_successor,
)
from .list_scheduler import list_schedule, reorder_block
from .machine_model import DEFAULT_MODEL, MachineModel


@dataclass
class RegionReport:
    """Summary of one region-scheduling pass."""

    speculated: int = 0
    duplicated: int = 0
    blocks_touched: int = 0
    per_block: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: hoists performed behind a serializing fence (safe-speculative)
    fenced: int = 0
    #: hoists the speculative-safety guard refused (safe-speculative)
    suppressed: int = 0

    def to_dict(self) -> dict:
        """JSON-serializable form (engine artifact-cache payload)."""
        return {"speculated": self.speculated,
                "duplicated": self.duplicated,
                "blocks_touched": self.blocks_touched,
                "per_block": {str(bid): list(v)
                              for bid, v in self.per_block.items()},
                "fenced": self.fenced,
                "suppressed": self.suppressed}

    @classmethod
    def from_dict(cls, d: dict) -> "RegionReport":
        """Inverse of :meth:`to_dict`."""
        return cls(speculated=d["speculated"], duplicated=d["duplicated"],
                   blocks_touched=d["blocks_touched"],
                   per_block={int(bid): tuple(v)
                              for bid, v in d["per_block"].items()},
                   fenced=d.get("fenced", 0),
                   suppressed=d.get("suppressed", 0))


def schedule_region(cfg: CFG, model: MachineModel = DEFAULT_MODEL,
                    bias_threshold: float = 0.65,
                    max_moves_per_block: int = 4,
                    profile=None,
                    mispredict_window: float = 3.0,
                    hoist_guard=None) -> RegionReport:
    """Apply profile-guided speculation across the CFG, then locally
    re-schedule every block.

    Edge frequencies must be annotated.  Speculation from the hot arm of a
    branch executes its hoisted work on the cold path too, wasting
    ``(1 - p_hot)`` dynamic operations per op; it pays off only when the
    work overlaps misprediction-resolution bubbles.  The gate is therefore
    ``misrate * mispredict_window > (1 - p_hot)``, with the branch's
    expected 2-bit miss rate taken from *profile* when available.  The CFG
    is modified in place.

    *hoist_guard* (a :class:`repro.robust.spectre.SpectreHoistGuard` or
    compatible callable) is threaded through to
    :func:`~repro.transform.speculation.speculate_from_successor`; when
    set, flagged hoists are fenced or refused — the safe-speculative
    scheme's only difference from the plain speculative one.
    """
    report = RegionReport()
    for bb in list(cfg.blocks):
        term = bb.terminator
        if term is None or not term.is_branch:
            continue
        edges = cfg.succ_edges[bb.bid]
        if len(edges) != 2:
            continue
        sched = list_schedule(bb.instructions, model)
        vacant = sched.vacant_slots(model)
        if vacant <= 0:
            continue
        budget = min(vacant, max_moves_per_block)
        total = sum(e.freq for e in edges)
        hot, cold = sorted(edges, key=lambda e: -e.freq)
        p_hot = hot.freq / total if total > 0 else 0.5

        accuracy = max(p_hot, 1.0 - p_hot)  # static fallback estimate
        if profile is not None:
            bp = profile.branch_of(term)
            if bp is not None and bp.executions:
                accuracy = bp.history.prediction_accuracy_2bit()
        misrate = 1.0 - accuracy
        profitable = misrate * mispredict_window > (1.0 - p_hot)

        moved_here = 0
        if profitable and p_hot >= bias_threshold and total > 0:
            # Prioritize the frequent arm (Figure 3(a)/(c)).  Work hoisted
            # from an arm taken with probability p wastes (1-p) of its
            # dynamic instructions on an out-of-order target, so only
            # strongly-biased branches are worth static speculation here —
            # the paper's own caveat ("it is therefore debatable as to how
            # much we would like to perform speculation at compile-time
            # versus doing it dynamically", Section 3).  Balanced 50/50
            # speculation (Figure 2(c)) pays off on an in-order machine
            # with genuinely idle slots, but measurably regresses on the
            # R10000-like model; see EXPERIMENTS.md.
            rep = speculate_from_successor(cfg, bb.bid, hot.dst, budget,
                                           allow_rename=False,
                                           hoist_guard=hoist_guard)
            moved_here += rep.count
            report.fenced += len(rep.fenced)
            report.suppressed += rep.suppressed
        report.speculated += moved_here

        # Fill the freed arm slots from a common join, when one exists.
        arms = [e.dst for e in edges]
        joins = [s for s in cfg.succs(arms[0])
                 if cfg.succs(arms[1]) == [s] and cfg.succs(arms[0]) == [s]]
        dup_here = 0
        if joins and moved_here:
            dup_here = duplicate_into_predecessors(cfg, joins[0], moved_here)
            report.duplicated += dup_here
        if moved_here or dup_here:
            report.blocks_touched += 1
            report.per_block[bb.bid] = (moved_here, dup_here)

    eliminate_dead_code(cfg)
    for bb in cfg.blocks:
        if bb.instructions:
            reorder_block(bb, model)
    return report
