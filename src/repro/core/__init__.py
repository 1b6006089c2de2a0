"""The paper's primary contribution: cost model, feedback heuristics, the
Figure 6 decision algorithm, and end-to-end compilation pipelines."""

from .cost_model import (
    PAPER_FIG2, PAPER_FIG4_PLAN, DiamondRegion, SegmentPlan, paper_fig4_cost,
    split_cost,
)
from .heuristics import (
    DEFAULT_HEURISTICS, FeedbackHeuristics, split_benefit_estimate,
)
from .algorithm import Decision, DecisionPlan, decide
from .pipeline import (
    CompileResult, compile_baseline, compile_proposed, compile_variant,
)

__all__ = [
    "PAPER_FIG2", "PAPER_FIG4_PLAN", "DiamondRegion", "SegmentPlan",
    "paper_fig4_cost", "split_cost",
    "DEFAULT_HEURISTICS", "FeedbackHeuristics", "split_benefit_estimate",
    "Decision", "DecisionPlan", "decide",
    "CompileResult", "compile_baseline", "compile_proposed",
    "compile_variant",
]
