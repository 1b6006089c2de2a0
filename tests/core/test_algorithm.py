"""The Figure 6 decision algorithm and feedback heuristics."""

import pytest

from repro.cfg import LoopForest, build_cfg
from repro.core import DEFAULT_HEURISTICS, FeedbackHeuristics, decide
from repro.core.heuristics import split_benefit_estimate
from repro.profilefb import BranchHistory, ProfileDB, Segment
from repro.workloads import phased_loop_program
from tests.conftest import biased_loop_program


def plan_for(prog, heur=DEFAULT_HEURISTICS):
    db = ProfileDB.from_run(prog)
    cfg = build_cfg(prog)
    db.annotate(cfg)
    forest = LoopForest(cfg)
    return decide(cfg, forest, db, heur), db, cfg


def actions(plan):
    return {d.action for d in plan.decisions}


def test_backward_hot_branch_gets_likely():
    prog = biased_loop_program(iterations=200, period=1000)  # ~always taken
    plan, _, _ = plan_for(prog)
    backward = [d for d in plan.decisions if d.direction == "backward"]
    assert any(d.action == "likely" for d in backward)


def test_forward_biased_branch_gets_likely():
    prog = biased_loop_program(iterations=400, period=32)  # ~97% taken
    plan, _, _ = plan_for(prog)
    forward_likely = [d for d in plan.decisions
                      if d.direction == "forward" and d.action == "likely"]
    assert forward_likely


def test_alternating_branch_offered_to_ifconvert():
    # A strictly alternating branch: periodic pattern -> guard candidate.
    prog = phased_loop_program([(200, "alternate")], body_ops=1)
    plan, _, _ = plan_for(prog)
    target = [d for d in plan.decisions
              if d.action in ("ifconvert", "none") and "guard" in d.reason
              or d.action == "ifconvert"]
    assert any(d.action == "ifconvert" for d in plan.decisions), \
        plan.summary()


def test_phased_branch_considered_for_split():
    prog = phased_loop_program([(80, "taken"), (40, "alternate"),
                                (80, "nottaken")], body_ops=2)
    plan, _, _ = plan_for(prog)
    reasons = " | ".join(d.reason for d in plan.decisions)
    assert "phased" in reasons or "split" in reasons


def test_min_executions_gate():
    prog = biased_loop_program(iterations=8, period=4)
    heur = FeedbackHeuristics(min_executions=1000)
    plan, _, _ = plan_for(prog, heur)
    assert all(d.action == "none" for d in plan.decisions)


def test_feature_toggles():
    prog = biased_loop_program(iterations=200, period=32)
    heur = FeedbackHeuristics(enable_likely=False, enable_ifconvert=False,
                              enable_split=False)
    plan, _, _ = plan_for(prog, heur)
    assert actions(plan) == {"none"}


def test_decisions_cover_all_loop_branches():
    prog = phased_loop_program([(50, "taken"), (50, "nottaken")])
    plan, db, cfg = plan_for(prog)
    forest = LoopForest(cfg)
    n_branches = sum(len(forest.branches(l)) for l in forest.loops)
    # Each branch block decided at most once (shared blocks deduplicated).
    assert 0 < len(plan.decisions) <= n_branches


def test_plan_summary_renders():
    prog = biased_loop_program(iterations=100, period=8)
    plan, _, _ = plan_for(prog)
    text = plan.summary()
    assert "->" in text


def test_by_action():
    prog = biased_loop_program(iterations=200, period=1000)
    plan, _, _ = plan_for(prog)
    for d in plan.by_action("likely"):
        assert d.action == "likely"


# ---- split benefit estimator --------------------------------------------------------

def test_split_benefit_positive_for_short_phases():
    # Many short alternating-bias phases defeat a 2-bit counter; splitting
    # specializes each -> strongly positive estimate.
    h = BranchHistory.from_string(("T" * 6 + "F" * 6) * 30)
    segs = tuple(Segment(i * 6, (i + 1) * 6,
                         "taken" if i % 2 == 0 else "nottaken",
                         1.0 if i % 2 == 0 else 0.0)
                 for i in range(60))
    gain = split_benefit_estimate(h, segs)
    assert gain > 0


def test_split_benefit_negative_for_two_clean_phases():
    # One transition: the 2-bit counter already handles it; instrumentation
    # overhead dominates.
    h = BranchHistory.from_string("T" * 200 + "F" * 200)
    segs = (Segment(0, 200, "taken", 1.0), Segment(200, 400, "nottaken", 0.0))
    gain = split_benefit_estimate(h, segs)
    assert gain < 0


def test_split_benefit_empty_history():
    assert split_benefit_estimate(BranchHistory([]), ()) == 0.0
