"""Cost model: exact reproduction of the paper's Figure 2/3/4 arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_model import (
    PAPER_FIG2, PAPER_FIG4_PLAN, DiamondRegion, SegmentPlan, paper_fig4_cost,
    split_cost,
)


# ---- the paper's exact numbers ---------------------------------------------------

def test_fig2_baseline_3100():
    assert PAPER_FIG2.baseline_cost() == 3100.0


def test_fig2_guarded_3600():
    assert PAPER_FIG2.guarded_cost() == 3600.0


def test_fig2_speculation_2900():
    assert PAPER_FIG2.speculate_balanced(2) == 2900.0


def test_fig4_split_2756():
    assert paper_fig4_cost() == pytest.approx(2756.0)


def test_fig4_segment_terms():
    # 100 * (9.44 + 5.8 + 12.32) per the paper's Figure 4 caption.
    seg1 = split_cost(PAPER_FIG2, (
        SegmentPlan(1.0, 0.05, "favor_b3", 4),))
    assert seg1 == pytest.approx(2360.0)  # 100 * 23.6 (= 9.44/0.4 * 100)
    seg2 = split_cost(PAPER_FIG2, (SegmentPlan(1.0, 0.5, "balanced", 2),))
    assert seg2 == pytest.approx(2900.0)
    seg3 = split_cost(PAPER_FIG2, (SegmentPlan(1.0, 0.95, "favor_b2", 4),))
    assert seg3 == pytest.approx(3080.0)  # 100 * 30.8
    assert 0.4 * seg1 + 0.2 * seg2 + 0.4 * seg3 == pytest.approx(2756.0)


def test_split_beats_one_time_metric():
    """The paper's headline claim for this example: the split schedule
    (2756) improves on the best any one-time decision can make (2900)."""
    best_one_time = PAPER_FIG2.best_one_time_cost(k=2)
    assert best_one_time == 2900.0
    assert paper_fig4_cost() < best_one_time


def test_guarded_worse_when_arms_skewed():
    """Figure 2's lesson: guarded execution should not be employed when
    schedule-length disparity between arms is high and probabilities don't
    compensate."""
    assert PAPER_FIG2.guarded_cost() > PAPER_FIG2.baseline_cost()


def test_guarded_can_win_when_arms_balanced():
    # Short, equal arms + branch removal: guarded wins when arms overlap
    # entirely in the predecessor's vacant slots.
    d = DiamondRegion(b1=10, b2=2, b3=2, b4=10, p_b2=0.5, vacant_b1=4,
                      iterations=100)
    assert d.guarded_cost() <= d.baseline_cost()


# ---- model validation ------------------------------------------------------------

def test_vacant_slot_limit_enforced():
    with pytest.raises(ValueError):
        PAPER_FIG2.speculate_balanced(3)  # needs 6 slots, only 4
    with pytest.raises(ValueError):
        PAPER_FIG2.per_iter_biased(True, 5)


def test_bad_probability_rejected():
    with pytest.raises(ValueError):
        DiamondRegion(1, 1, 1, 1, p_b2=1.5, vacant_b1=0, iterations=1)


def test_split_fractions_must_sum_to_one():
    with pytest.raises(ValueError):
        split_cost(PAPER_FIG2, (SegmentPlan(0.5, 0.5, "baseline"),))


def test_split_unknown_strategy():
    with pytest.raises(ValueError):
        split_cost(PAPER_FIG2, (SegmentPlan(1.0, 0.5, "warp"),))


def test_split_overhead_term():
    base = split_cost(PAPER_FIG2, PAPER_FIG4_PLAN)
    with_oh = split_cost(PAPER_FIG2, PAPER_FIG4_PLAN, overhead_per_iter=1.0)
    assert with_oh == pytest.approx(base + 100.0)


@given(st.floats(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=2))
@settings(max_examples=50)
def test_balanced_speculation_never_hurts(p, k):
    d = DiamondRegion(b1=10, b2=13, b3=5, b4=12, p_b2=p, vacant_b1=4,
                      iterations=100)
    assert d.speculate_balanced(k) <= d.baseline_cost()


@given(st.floats(min_value=0, max_value=1))
@settings(max_examples=50)
def test_biased_toward_likely_arm_wins_at_extremes(p):
    d = DiamondRegion(b1=10, b2=13, b3=5, b4=12, p_b2=p, vacant_b1=4,
                      iterations=100)
    fav_b2 = d.speculate_biased(True, 4)
    fav_b3 = d.speculate_biased(False, 4)
    if p > 0.9:
        assert fav_b2 <= fav_b3
    elif p < 0.1:
        assert fav_b3 <= fav_b2
