"""The paper's Figure 6 decision algorithm.

::

    for each procedure:
      detect all loops, create loop-list L
      for each branch bj in L:
        if forward branch:
          if branch_frequency(bj) highly probable (>= 0.95):
            generate branch-likely instruction
          else if branch_frequency(bj) >= 0.65:
            if monotonic(bj) and guarded-execution cost (Fig 2(d)) less
               expensive than weighted schedule estimates (Fig 2(b),(c)):
              generate if-converted code
          else if non-monotonic(bj) and instrumentable(bj):
            if cost of instrumented code (Fig 4) less expensive than
               Fig 2(b),(c) and (d):
              generate split-branch code (Fig 5)
        else (backward branch):
          if branch_frequency(bj) highly probable (>= 0.95):
            generate branch-likely instruction

One documented refinement: a *periodic* toggle pattern (e.g. TFTF...)
classifies as instrumentable in the paper, but expressing a modulo counter
per iteration costs more than it saves on our target; such branches are
instead routed to the if-conversion cost check — eliminating an
unpredictable branch is exactly what guarding is for (Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cfg.graph import CFG
from ..cfg.loops import LoopForest
from ..profilefb.classify import BranchClass
from ..profilefb.profiledb import ProfileDB
from ..sched.machine_model import DEFAULT_MODEL, MachineModel
from .heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics, split_benefit_estimate


@dataclass
class Decision:
    """One per profiled loop branch."""

    block: int
    branch_uid: int
    action: str          # "likely" | "ifconvert" | "split" | "none"
    reason: str
    direction: str       # "forward" | "backward"
    estimated_gain: float = 0.0

    def to_dict(self) -> dict:
        """JSON-serializable form (engine artifact-cache payload)."""
        return {"block": self.block, "branch_uid": self.branch_uid,
                "action": self.action, "reason": self.reason,
                "direction": self.direction,
                "estimated_gain": self.estimated_gain}

    @classmethod
    def from_dict(cls, d: dict) -> "Decision":
        """Inverse of :meth:`to_dict`."""
        return cls(block=d["block"], branch_uid=d["branch_uid"],
                   action=d["action"], reason=d["reason"],
                   direction=d["direction"],
                   estimated_gain=d["estimated_gain"])


@dataclass
class DecisionPlan:
    decisions: list[Decision] = field(default_factory=list)

    def by_action(self, action: str) -> list[Decision]:
        return [d for d in self.decisions if d.action == action]

    def summary(self) -> str:
        lines = []
        for d in self.decisions:
            lines.append(f"  block {d.block:<4} {d.direction:<8} -> "
                         f"{d.action:<10} ({d.reason})")
        return "\n".join(lines) or "  (no loop branches)"

    def to_dict(self) -> dict:
        """JSON-serializable form (engine artifact-cache payload).

        Instruction uids are process-local (a module-global counter), so
        raw ``branch_uid`` values would differ between a serial run and a
        worker process.  Serialization therefore *rank-normalizes* them —
        each decision stores the rank of its uid among the plan's uids.
        Ranks are deterministic, order-preserving, and idempotent under
        re-serialization, so cached and freshly-computed payloads are
        byte-identical.
        """
        ranks = {uid: i for i, uid in enumerate(
            sorted({d.branch_uid for d in self.decisions}))}
        recs = []
        for d in self.decisions:
            rec = d.to_dict()
            rec["branch_uid"] = ranks[d.branch_uid]
            recs.append(rec)
        return {"decisions": recs}

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(decisions=[Decision.from_dict(x)
                              for x in d["decisions"]])


def decide(cfg: CFG, forest: LoopForest, profile: ProfileDB,
           heur: FeedbackHeuristics = DEFAULT_HEURISTICS,
           model: MachineModel = DEFAULT_MODEL) -> DecisionPlan:
    """Run the Figure 6 algorithm over every loop branch of the CFG.

    Produces a plan; application order (splits, then if-conversions, then
    the global branch-likely pass) is handled by
    :func:`repro.core.pipeline.compile_proposed`.
    """
    plan = DecisionPlan()
    seen_blocks: set[int] = set()
    likely_threshold = heur.classify.likely_threshold

    for loop in forest.loops:
        for lb in forest.branches(loop):
            if lb.block in seen_blocks:
                continue
            seen_blocks.add(lb.block)
            term = lb.instr
            bp = profile.branch_of(term)
            if bp is None or bp.executions < heur.min_executions:
                plan.decisions.append(Decision(
                    lb.block, term.uid, "none", "no/low profile",
                    lb.direction))
                continue
            cls = bp.classification
            freq = cls.frequency

            # Backward branches: branch-likely only (Figure 6's second arm).
            if lb.direction == "backward":
                if heur.enable_likely and (freq >= likely_threshold
                                           or freq <= 1 - likely_threshold):
                    plan.decisions.append(Decision(
                        lb.block, term.uid, "likely",
                        f"backward, freq={freq:.2f}", lb.direction))
                else:
                    plan.decisions.append(Decision(
                        lb.block, term.uid, "none",
                        f"backward, freq={freq:.2f}", lb.direction))
                continue

            # Forward branches.
            if heur.enable_likely and cls.wants_likely:
                plan.decisions.append(Decision(
                    lb.block, term.uid, "likely",
                    f"highly probable, freq={freq:.2f}", lb.direction))
                continue

            split_rejected = ""
            if cls.branch_class == BranchClass.SPLITTABLE \
                    and cls.pattern.kind == "phased" and heur.enable_split:
                gain = split_benefit_estimate(bp.history,
                                              cls.pattern.segments, heur)
                if gain > heur.min_gain:
                    plan.decisions.append(Decision(
                        lb.block, term.uid, "split",
                        f"phased x{len(cls.pattern.segments)}, "
                        f"est gain {gain:.0f}cy", lb.direction, gain))
                    continue
                # Not worth splitting; fall through to the guard check —
                # a phased branch with an anomalous segment may still be
                # worth if-converting outright.
                split_rejected = f"split gain {gain:.0f}cy rejected; "

            # Guard candidates: biased-monotonic branches (Figure 6's
            # explicit arm), periodic togglers (eliminating an alternating
            # branch is guarding's best case), and stationary branches the
            # 2-bit predictor handles poorly — the paper's "instruction
            # traces [that] are less regular but suffer from insufficient
            # parallelism" (Section 6).
            misrate = 1.0 - bp.history.prediction_accuracy_2bit()
            wants_guard = cls.wants_ifconvert or bool(split_rejected) or (
                cls.branch_class == BranchClass.SPLITTABLE
                and cls.pattern.kind == "periodic") or (
                cls.branch_class == BranchClass.IRREGULAR and misrate > 0.10)
            if wants_guard and heur.enable_ifconvert:
                verdict, gain = _ifconvert_cost_check(
                    cfg, lb.block, model, heur, misrate=misrate)
                if verdict:
                    plan.decisions.append(Decision(
                        lb.block, term.uid, "ifconvert",
                        f"{split_rejected}{cls.pattern.kind}, guarded "
                        f"saves {gain:.0f}cy", lb.direction, gain))
                    continue
                plan.decisions.append(Decision(
                    lb.block, term.uid, "none",
                    f"{split_rejected}guarded execution not profitable "
                    f"({gain:.0f}cy)", lb.direction, gain))
                continue

            plan.decisions.append(Decision(
                lb.block, term.uid, "none",
                f"{cls.branch_class.value}, freq={freq:.2f}", lb.direction))
    return plan


def _ifconvert_cost_check(cfg: CFG, head: int, model: MachineModel,
                          heur: FeedbackHeuristics,
                          misrate: Optional[float] = None,
                          ) -> tuple[bool, float]:
    """Figure 2's comparison: guarded cost vs the weighted schedule
    estimates with/without speculation, on the actual region.

    *misrate* is the branch's profiled 2-bit miss rate; guarding removes
    the branch, so those mispredictions are credited at the modeled
    penalty.  Returns (apply?, estimated gain in cycles).  Non-diamond
    shapes return (False, 0): if-conversion only handles
    diamonds/triangles anyway.
    """
    from ..transform.ifconvert import find_diamond

    shape = find_diamond(cfg, head)
    if shape is None:
        return (False, 0.0)
    fall, taken, join = shape
    hb = cfg.block(head)
    iters = hb.freq
    if iters <= 0:
        return (False, 0.0)
    total = sum(e.freq for e in cfg.succ_edges[head])
    te = cfg.taken_edge(head)
    p_taken = (te.freq / total) if (te is not None and total > 0) else 0.5

    def arm_ops(bid: int) -> int:
        if bid == join:
            return 0
        return sum(1 for i in cfg.block(bid).instructions if not i.is_control)

    if misrate is None:
        misrate = 2 * p_taken * (1 - p_taken)
    # Per-iteration accounting on the OOO target:
    # + removed mispredictions, at the modeled penalty;
    # - annulled work: the arm NOT taken still occupies dispatch slots
    #   (Figure 2's vacant-slot credit assumes an in-order machine whose
    #   empty slots are free; a 4-wide dispatch-bound core pays for them);
    # - the control->data dependence: correctly-predicted executions now
    #   wait for the predicate compare (paper Section 3).
    wasted_ops = p_taken * arm_ops(fall) + (1 - p_taken) * arm_ops(taken)
    per_iter = (misrate * heur.mispredict_penalty
                - wasted_ops / model.issue_width
                - (1.0 - misrate) * heur.guard_dependence_penalty)
    gain = iters * per_iter
    return (gain > heur.min_gain, gain)
