"""Schedule cost estimation — the paper's Figures 2, 3 and 4.

:class:`DiamondRegion` is the analytic model of a two-arm (if/else)
acyclic region inside a loop, reproducing the paper's worked example
exactly: baseline 3100 cycles, speculation 2900, guarded execution 3600
(Figure 2) and the 40 %/20 %/40 % segment-split schedule of 2756 cycles
(Figures 3/4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence


@dataclass(frozen=True)
class DiamondRegion:
    """An if/else diamond B1 -> {B2, B3} -> B4 executed ``iterations`` times.

    Lengths are local schedule lengths in cycles; ``p_b2`` is the
    probability of the B2 arm; ``vacant_b1`` is the number of empty issue
    slots in B1's schedule available for speculated operations.

    The paper's Figure 2 instance:

    >>> d = PAPER_FIG2
    >>> d.baseline_cost()
    3100.0
    >>> d.guarded_cost()
    3600.0
    >>> d.speculate_balanced(2)
    2900.0
    """

    b1: float
    b2: float
    b3: float
    b4: float
    p_b2: float
    vacant_b1: int
    iterations: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_b2 <= 1.0:
            raise ValueError("p_b2 must be a probability")
        if self.vacant_b1 < 0 or self.iterations < 0:
            raise ValueError("vacant_b1 and iterations must be non-negative")

    # -- per-iteration costs ------------------------------------------------------

    def per_iter_baseline(self) -> float:
        """Weighted acyclic schedule: b1 + p*b2 + (1-p)*b3 + b4."""
        return self.b1 + self.p_b2 * self.b2 + (1 - self.p_b2) * self.b3 + self.b4

    def per_iter_balanced(self, k: int) -> float:
        """Speculate *k* ops from EACH arm into B1's vacant slots; the 2k
        vacated arm slots absorb 2k operations copied down from B4, whose
        schedule shrinks by k cycles (one ld/st-free cycle per op pair in
        the paper's example).  Arm lengths are unchanged.
        """
        if 2 * k > self.vacant_b1:
            raise ValueError(f"needs {2 * k} vacant slots, have {self.vacant_b1}")
        return (self.b1 + self.p_b2 * self.b2 + (1 - self.p_b2) * self.b3
                + max(0.0, self.b4 - k))

    def per_iter_biased(self, favor_b2: bool, k: int) -> float:
        """Speculate *k* ops from the favored arm into B1; copy *k* ops
        from B4 into both arms.  The favored arm's vacated slots absorb its
        copies (length unchanged); the unfavored arm grows by k; B4 shrinks
        by k (paper Figure 3(a)/(c)).
        """
        if k > self.vacant_b1:
            raise ValueError(f"needs {k} vacant slots, have {self.vacant_b1}")
        if favor_b2:
            b2, b3 = self.b2, self.b3 + k
        else:
            b2, b3 = self.b2 + k, self.b3
        return (self.b1 + self.p_b2 * b2 + (1 - self.p_b2) * b3
                + max(0.0, self.b4 - k))

    def per_iter_guarded(self) -> float:
        """If-convert the diamond: both arms execute every iteration,
        serialized, with B1's vacant slots absorbing that many guarded
        operations (paper Figure 2(d): 10 + (13 + 5 - 4) + 12).
        """
        return self.b1 + max(0.0, self.b2 + self.b3 - self.vacant_b1) + self.b4

    # -- whole-loop costs ---------------------------------------------------------

    def baseline_cost(self) -> float:
        return self.iterations * self.per_iter_baseline()

    def guarded_cost(self) -> float:
        return self.iterations * self.per_iter_guarded()

    def speculate_balanced(self, k: int) -> float:
        return self.iterations * self.per_iter_balanced(k)

    def speculate_biased(self, favor_b2: bool, k: int) -> float:
        return self.iterations * self.per_iter_biased(favor_b2, k)

    def best_one_time_cost(self, k: int) -> float:
        """The best a one-time feedback metric can do: pick one strategy
        for the entire iteration space."""
        options = [self.baseline_cost(), self.guarded_cost()]
        if 2 * k <= self.vacant_b1:
            options.append(self.speculate_balanced(k))
        if k <= self.vacant_b1:
            options.append(self.speculate_biased(True, k))
            options.append(self.speculate_biased(False, k))
        return min(options)


@dataclass(frozen=True)
class SegmentPlan:
    """One iteration-space segment of a split-branch plan.

    ``fraction`` — share of the loop's iterations; ``p_b2`` — the branch
    bias inside this segment; ``strategy`` — one of ``"balanced"``,
    ``"favor_b2"``, ``"favor_b3"``, ``"baseline"``, ``"guarded"``;
    ``k`` — operations moved for speculation strategies.
    """

    fraction: float
    p_b2: float
    strategy: str
    k: int = 0


def split_cost(region: DiamondRegion, plan: Sequence[SegmentPlan],
               overhead_per_iter: float = 0.0) -> float:
    """Cost of the paper's split-branch scheme (Figure 4): each segment
    runs its own specialized schedule, weighted by its fraction of the
    iteration space, plus any per-iteration instrumentation overhead
    (counter increment + split predicates; zero in the paper's idealized
    arithmetic).
    """
    total_fraction = sum(s.fraction for s in plan)
    if abs(total_fraction - 1.0) > 1e-9:
        raise ValueError(f"segment fractions sum to {total_fraction}, not 1")
    cost = 0.0
    for seg in plan:
        r = replace(region, p_b2=seg.p_b2)
        if seg.strategy == "balanced":
            per = r.per_iter_balanced(seg.k)
        elif seg.strategy == "favor_b2":
            per = r.per_iter_biased(True, seg.k)
        elif seg.strategy == "favor_b3":
            per = r.per_iter_biased(False, seg.k)
        elif seg.strategy == "baseline":
            per = r.per_iter_baseline()
        elif seg.strategy == "guarded":
            per = r.per_iter_guarded()
        else:
            raise ValueError(f"unknown strategy {seg.strategy!r}")
        cost += seg.fraction * region.iterations * (per + overhead_per_iter)
    return cost


#: The exact instance of the paper's Figure 2: schedule lengths 10/13/5/12,
#: equal arm probabilities, four vacant slots in B1, 100 loop iterations.
PAPER_FIG2 = DiamondRegion(b1=10, b2=13, b3=5, b4=12, p_b2=0.5,
                           vacant_b1=4, iterations=100)

#: The paper's Figure 3/4 split plan: first 40% of iterations favor the B3
#: arm (95/5), the middle 20% toggle (50/50, balanced speculation), the
#: final 40% favor B2 (95/5).
PAPER_FIG4_PLAN = (
    SegmentPlan(fraction=0.4, p_b2=0.05, strategy="favor_b3", k=4),
    SegmentPlan(fraction=0.2, p_b2=0.5, strategy="balanced", k=2),
    SegmentPlan(fraction=0.4, p_b2=0.95, strategy="favor_b2", k=4),
)


def paper_fig4_cost() -> float:
    """The paper's Figure 4 result: 2756 cycles."""
    return split_cost(PAPER_FIG2, PAPER_FIG4_PLAN)
