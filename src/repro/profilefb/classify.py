"""Branch classification per the paper's Figure 6 thresholds.

The decision algorithm distinguishes:

* highly probable branches (frequency >= 0.95) -> branch-likely;
* biased monotonic branches (>= 0.65, stable behavior) -> if-conversion
  candidates, subject to the cost model;
* non-monotonic but instrumentable branches -> split candidates;
* everything else -> leave to the hardware's 2-bit predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .bitvector import BranchHistory
from .patterns import PatternInfo, analyze_pattern


class BranchClass(Enum):
    """How the feedback heuristics see one static branch."""

    HIGHLY_TAKEN = "highly-taken"         # freq >= likely threshold
    HIGHLY_NOTTAKEN = "highly-nottaken"   # freq <= 1 - likely threshold
    BIASED_MONOTONIC = "biased-monotonic"  # stable bias >= bias threshold
    SPLITTABLE = "splittable"             # non-monotonic, instrumentable
    IRREGULAR = "irregular"               # leave to hardware prediction


@dataclass(frozen=True)
class ClassifyConfig:
    """Thresholds of the Figure 6 algorithm."""

    likely_threshold: float = 0.95
    bias_threshold: float = 0.65
    #: toggle factor below which a branch counts as monotonic (paper:
    #: "classified as either monotonic (or not) if their corresponding
    #: toggle factor ... is below/above a threshold limit").  A branch with
    #: i.i.d. outcomes at bias p has expected toggle 2p(1-p) <= 0.5, so 0.5
    #: admits every statistically-stationary branch while rejecting
    #: adversarial alternation (toggle -> 1).
    monotonic_toggle: float = 0.5
    #: segmentation parameters forwarded to pattern analysis
    window: int = 8
    segment_bias: float = 0.9
    max_segments: int = 4


@dataclass(frozen=True)
class Classification:
    """Classification result plus the evidence that produced it."""

    branch_class: BranchClass
    frequency: float
    toggle_factor: float
    pattern: PatternInfo

    @property
    def wants_likely(self) -> bool:
        return self.branch_class in (BranchClass.HIGHLY_TAKEN,
                                     BranchClass.HIGHLY_NOTTAKEN)

    @property
    def wants_ifconvert(self) -> bool:
        return self.branch_class == BranchClass.BIASED_MONOTONIC

    @property
    def wants_split(self) -> bool:
        return self.branch_class == BranchClass.SPLITTABLE


def classify(history: BranchHistory,
             config: ClassifyConfig = ClassifyConfig()) -> Classification:
    """Classify one branch history."""
    freq = history.frequency
    toggle = history.toggle_factor
    pattern = analyze_pattern(
        history, window=config.window, bias=config.segment_bias,
        max_segments=config.max_segments)

    if freq >= config.likely_threshold:
        cls = BranchClass.HIGHLY_TAKEN
    elif freq <= 1.0 - config.likely_threshold:
        cls = BranchClass.HIGHLY_NOTTAKEN
    elif pattern.is_instrumentable:
        cls = BranchClass.SPLITTABLE
    elif max(freq, 1.0 - freq) >= config.bias_threshold \
            and toggle <= config.monotonic_toggle:
        cls = BranchClass.BIASED_MONOTONIC
    else:
        cls = BranchClass.IRREGULAR
    return Classification(branch_class=cls, frequency=freq,
                          toggle_factor=toggle, pattern=pattern)
