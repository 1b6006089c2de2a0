"""Segmentation, pattern detection, classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profilefb import (
    BranchClass, BranchHistory, ClassifyConfig, analyze_pattern,
    boundaries_stable, classify, detect_period, is_instrumentable,
    segment_history,
)


def H(s):
    return BranchHistory.from_string(s)


#: The paper's Figure 3/4 iteration-space shape: 40% taken, 20% toggling,
#: 40% not-taken (loop executed 100 times).
PAPER_PATTERN = H("T" * 40 + "TF" * 10 + "F" * 40)


# ---- segmentation --------------------------------------------------------------

def test_paper_pattern_segments():
    segs = segment_history(PAPER_PATTERN, window=5)
    assert [s.kind for s in segs] == ["taken", "mixed", "nottaken"]
    assert [s.start for s in segs[1:]] == [40, 60]
    assert segs[0].freq == 1.0
    assert abs(segs[1].freq - 0.5) < 1e-12
    assert segs[2].freq == 0.0


def test_constant_single_segment():
    segs = segment_history(H("T" * 50), window=8)
    assert len(segs) == 1
    assert segs[0].kind == "taken"
    assert (segs[0].start, segs[0].end) == (0, 50)


def test_two_phase():
    segs = segment_history(H("T" * 32 + "F" * 32), window=8)
    assert [s.kind for s in segs] == ["taken", "nottaken"]
    assert [s.start for s in segs[1:]] == [32]


def test_small_sections_absorbed():
    # One stray F in a sea of Ts must not create its own section.
    segs = segment_history(H("T" * 30 + "F" + "T" * 33), window=8,
                           min_fraction=0.1)
    assert len(segs) == 1
    assert segs[0].kind == "taken"


def test_segments_partition_everything():
    for s in ("TTFFTTFF" * 10, "T" * 7, "F" * 100, "TF" * 33):
        segs = segment_history(H(s), window=8)
        assert segs[0].start == 0
        assert segs[-1].end == len(s)
        for a, b in zip(segs, segs[1:]):
            assert a.end == b.start


@given(st.lists(st.booleans(), min_size=1, max_size=300),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=60)
def test_segment_partition_property(outcomes, window):
    h = BranchHistory(outcomes)
    segs = segment_history(h, window=window)
    assert segs[0].start == 0
    assert segs[-1].end == len(h)
    for a, b in zip(segs, segs[1:]):
        assert a.end == b.start
        assert a.kind != b.kind  # coalesced


# ---- period detection ----------------------------------------------------------

def test_detect_period_exact():
    p, match = detect_period(H("TTF" * 30))
    assert p == 3
    assert match == 1.0


def test_detect_period_alternating():
    p, _ = detect_period(H("TF" * 40))
    assert p == 2


def test_detect_period_none_for_random_phases():
    assert detect_period(H("T" * 40 + "F" * 40)) is None


def test_detect_period_tolerates_noise():
    s = list("TTF" * 30)
    s[10] = "T"  # one flipped outcome
    result = detect_period(BranchHistory.from_string("".join(s)),
                           min_match=0.95)
    assert result is not None
    assert result[0] == 3


# ---- pattern analysis ------------------------------------------------------------

def test_analyze_constant():
    assert analyze_pattern(H("T" * 100)).kind == "constant"
    assert analyze_pattern(H("F" * 100)).kind == "constant"


def test_analyze_periodic():
    info = analyze_pattern(H("TTF" * 40))
    assert info.kind == "periodic"
    assert info.period == 3
    assert info.is_instrumentable


def test_analyze_phased_paper_pattern():
    info = analyze_pattern(PAPER_PATTERN, window=5)
    assert info.kind == "phased"
    assert info.is_instrumentable
    assert len(info.segments) == 3


def test_analyze_complex_random():
    import random

    rng = random.Random(7)
    s = "".join("T" if rng.random() < 0.5 else "F" for _ in range(400))
    info = analyze_pattern(BranchHistory.from_string(s))
    assert info.kind == "complex"
    assert not info.is_instrumentable


def test_is_instrumentable_shortcut():
    assert is_instrumentable(PAPER_PATTERN, window=5)
    assert not is_instrumentable(H("T" * 100))  # constant: use likely instead


def test_boundaries_stable():
    a = H("T" * 40 + "TF" * 10 + "F" * 40)
    b = H("T" * 42 + "TF" * 9 + "F" * 40)
    assert boundaries_stable([a, b], tolerance=0.1, window=5)


def test_boundaries_unstable():
    a = H("T" * 20 + "F" * 80)
    b = H("T" * 80 + "F" * 20)
    assert not boundaries_stable([a, b], tolerance=0.1, window=5)


# ---- classification -----------------------------------------------------------------

def test_classify_highly_taken():
    c = classify(H("T" * 99 + "F"))
    assert c.branch_class == BranchClass.HIGHLY_TAKEN
    assert c.wants_likely


def test_classify_highly_nottaken():
    c = classify(H("F" * 99 + "T"))
    assert c.branch_class == BranchClass.HIGHLY_NOTTAKEN
    assert c.wants_likely


def test_classify_splittable():
    c = classify(PAPER_PATTERN)
    assert c.branch_class == BranchClass.SPLITTABLE
    assert c.wants_split


def test_classify_biased_monotonic():
    # 70% taken, i.i.d.-ish mix without phase structure.
    import random

    rng = random.Random(3)
    s = "".join("T" if rng.random() < 0.72 else "F" for _ in range(400))
    c = classify(BranchHistory.from_string(s))
    assert c.branch_class == BranchClass.BIASED_MONOTONIC
    assert c.wants_ifconvert


def test_classify_irregular():
    import random

    rng = random.Random(11)
    s = "".join("T" if rng.random() < 0.5 else "F" for _ in range(400))
    c = classify(BranchHistory.from_string(s))
    assert c.branch_class == BranchClass.IRREGULAR


def test_is_monotonic():
    # Figure 6's monotonic(b): a branch with phase structure or a toggling
    # one is no biased-monotonic if-conversion candidate.
    assert not classify(H("T" * 50 + "F" * 50)).wants_ifconvert  # phased
    assert not classify(H("TF" * 50)).wants_ifconvert             # alternating


def test_custom_thresholds():
    cfg = ClassifyConfig(likely_threshold=0.8)
    c = classify(H("T" * 85 + "F" * 15), cfg)
    assert c.branch_class == BranchClass.HIGHLY_TAKEN
