"""Closed-loop heuristic autotuning over the evaluation engine.

The paper fixes the Figure 6 decision algorithm's thresholds globally
(0.95/0.65 classification cut-offs, cost-model weights) because in 1998
every extra configuration evaluation was unaffordable.  This package
closes the loop the content-addressed engine, the serve fleet, and the
fast simulator make cheap: a :class:`TuneSpec` declares a bounded
search space over :class:`~repro.core.heuristics.FeedbackHeuristics`
and :class:`~repro.sim.config.MachineConfig` vectors, and
:func:`run_tune` drives a successive-halving + mutation search whose
candidates are evaluated as *ordinary cached engine cells* — shared
with every ``tables``/``sweep`` run, deduplicated fleet-wide, and free
on resume.  Results are a Pareto front over IPC vs. code growth vs.
compile cost plus per-workload winning vectors (always at least as good
on IPC as the paper's defaults, which compete as candidate 0).

See docs/TUNE.md for the search loop, objectives, and resume semantics;
``python -m repro tune`` is the CLI entry point and
``Session.tune(spec)`` the API one.
"""

from .evaluate import compile_cost
from .pareto import dominates, pareto_front
from .render import format_tune_result
from .search import TuneResult, default_value, run_tune, tune_result_key
from .spec import (
    CONFIG_PARAMS, DEFAULT_PARAM_NAMES, ParamSpec, TuneSpec, apply_params,
    known_bound,
)

__all__ = [
    "CONFIG_PARAMS", "DEFAULT_PARAM_NAMES", "ParamSpec",
    "TuneResult", "TuneSpec", "apply_params", "compile_cost",
    "default_value", "dominates", "format_tune_result", "known_bound",
    "pareto_front", "run_tune", "tune_result_key",
]
