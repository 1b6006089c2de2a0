"""Feedback heuristics: the tunable knobs of the Figure 6 algorithm.

The paper's thesis is that feedback metrics should be *designed*, not just
consumed: a one-time average hides structure that per-segment metrics
expose.  :class:`FeedbackHeuristics` bundles every threshold the decision
procedure uses, so ablation benchmarks can sweep them
(``benchmarks/bench_ablations.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..profilefb.bitvector import BranchHistory
from ..profilefb.classify import ClassifyConfig


@dataclass(frozen=True)
class ParamBound:
    """Inclusive tuning range of one heuristic knob (see :mod:`repro.tune`).

    ``kind`` is ``"float"``, ``"int"``, or ``"choice"``; choice parameters
    carry their admissible values in ``choices`` (``lo``/``hi`` unused).
    """

    lo: float = 0.0
    hi: float = 0.0
    kind: str = "float"
    choices: tuple = ()

    def clamp(self, value):
        """*value* forced into the bound (and onto the int grid)."""
        if self.kind == "choice":
            return value if value in self.choices else self.choices[0]
        v = min(max(value, self.lo), self.hi)
        return int(round(v)) if self.kind == "int" else float(v)


@dataclass(frozen=True)
class FeedbackHeuristics:
    """All knobs of the proposed compilation scheme."""

    classify: ClassifyConfig = field(default_factory=ClassifyConfig)

    # Feature toggles (for the individual/combined ablations of the title).
    enable_likely: bool = True
    enable_ifconvert: bool = True
    enable_split: bool = True
    enable_speculation: bool = True

    #: codegen style for branch splitting ("sectioned" per Figure 5, or the
    #: literal "inline" Figure 7(b) form)
    split_style: str = "sectioned"

    #: cycles charged per misprediction when estimating split benefit
    #: (resolution depth + recovery on the R10000-like pipeline)
    mispredict_penalty: float = 4.0
    #: cycles charged per *correctly predicted* execution when a branch is
    #: if-converted: guarding turns the control dependence into a data
    #: dependence on the predicate, so the guarded ops wait for the compare
    #: where a predicted branch would have let them issue immediately
    guard_dependence_penalty: float = 0.5
    #: per-iteration instrumentation overhead of a split loop (counter
    #: increment + predicate evaluation in the latch)
    split_overhead_per_iter: float = 1.0
    #: minimum dynamic executions before a branch is worth transforming
    min_executions: int = 16
    #: minimum estimated cycle gain before a transform is applied
    min_gain: float = 0.0

    # Branch-melding knobs (the melded scheme; see repro.transform.meld).
    #: replace if-conversion with branch melding: both diamond arms run
    #: unconditionally into scratch registers and native conditional
    #: moves (cmovt/cmovf) select the surviving values — no guarded ops
    enable_meld: bool = False
    #: largest arm (non-control instructions) the melder will flatten
    meld_max_arm_ops: int = 4

    # Region-scheduler knobs.
    speculation_bias: float = 0.65
    max_moves_per_block: int = 4

    # Speculative-safety knobs (the safe-speculative scheme; see
    # repro.robust.spectre).  All of these flow into engine cache keys
    # automatically because FeedbackHeuristics is canonicalized field by
    # field (repro.engine.keys.canonical).
    #: gate flagged hoists through the spectre analysis
    spectre_safe: bool = False
    #: speculative-execution window the analysis walks (instructions)
    spectre_sew: int = 16
    #: True: plant a fence before flagged hoists; False: refuse them
    spectre_fence: bool = True
    #: registers treated as attacker-controlled at program entry
    spectre_untrusted: tuple[str, ...] = ("r4", "r5", "r6", "r7")


DEFAULT_HEURISTICS = FeedbackHeuristics()

#: Bounded-parameter metadata of every knob the closed-loop search
#: (:mod:`repro.tune`) may vary.  Dotted ``classify.<field>`` names reach
#: into the nested :class:`~repro.profilefb.classify.ClassifyConfig`;
#: plain names are :class:`FeedbackHeuristics` fields.  The paper's
#: global Figure 6 values (0.95 likely / 0.65 bias / ...) all sit inside
#: their bounds, so the default vector is always a valid candidate.
TUNABLE_PARAMS: dict[str, ParamBound] = {
    "classify.likely_threshold": ParamBound(0.80, 0.999),
    "classify.bias_threshold": ParamBound(0.55, 0.95),
    "classify.monotonic_toggle": ParamBound(0.20, 0.80),
    "classify.segment_bias": ParamBound(0.70, 0.99),
    "classify.window": ParamBound(4, 16, "int"),
    "classify.max_segments": ParamBound(2, 8, "int"),
    "mispredict_penalty": ParamBound(2.0, 8.0),
    "guard_dependence_penalty": ParamBound(0.0, 2.0),
    "split_overhead_per_iter": ParamBound(0.25, 2.0),
    "min_executions": ParamBound(4, 64, "int"),
    "meld_max_arm_ops": ParamBound(1, 8, "int"),
    "min_gain": ParamBound(0.0, 8.0),
    "speculation_bias": ParamBound(0.50, 0.95),
    "max_moves_per_block": ParamBound(1, 8, "int"),
    "split_style": ParamBound(kind="choice",
                              choices=("sectioned", "inline")),
}


def split_benefit_estimate(history: BranchHistory, segments,
                           heur: FeedbackHeuristics = DEFAULT_HEURISTICS,
                           ) -> float:
    """Estimated cycles saved by splitting a branch with this history.

    Savings: the 2-bit predictor's mispredictions on the whole history,
    minus the mispredictions left after per-segment specialization (biased
    segments become branch-likelies that only miss at their minority
    outcomes; mixed segments keep the 2-bit scheme, estimated at its
    whole-history rate).  Cost: per-iteration instrumentation overhead.

    This generalizes the diamond arithmetic of Figures 2-4 to arbitrary
    region shapes: when the region is not a clean diamond, prediction
    behavior is the dominating term the split actually changes.
    """
    n = len(history)
    if n == 0:
        return 0.0
    acc_whole = history.prediction_accuracy_2bit()
    misses_before = (1.0 - acc_whole) * n

    misses_after = 0.0
    for seg in segments:
        seg_len = seg.end - seg.start
        if seg.kind == "taken":
            misses_after += (1.0 - seg.freq) * seg_len
        elif seg.kind == "nottaken":
            misses_after += seg.freq * seg_len
        else:
            sub = history[seg.start:seg.end]
            misses_after += (1.0 - sub.prediction_accuracy_2bit()) * seg_len

    saved = (misses_before - misses_after) * heur.mispredict_penalty
    overhead = heur.split_overhead_per_iter * n
    return saved - overhead
