"""BranchHistory statistics, including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profilefb import BranchHistory

outcome_lists = st.lists(st.booleans(), min_size=0, max_size=200)


def H(s):
    return BranchHistory.from_string(s)


def test_from_string():
    h = H("TTFFT")
    assert len(h) == 5
    assert h.taken_count == 3
    assert h.as_string() == "TTFFT"


def test_from_string_accepts_digits():
    assert H("1100").as_string() == "TTFF"


def test_from_string_rejects_garbage():
    with pytest.raises(ValueError):
        H("TXF")


def test_frequency():
    assert H("TTFF").frequency == 0.5
    assert H("TTTT").frequency == 1.0
    assert H("").frequency == 0.0


def test_transitions_and_toggle():
    assert H("TTTT").transitions == 0
    assert H("TTTT").toggle_factor == 0.0
    assert H("TFTF").transitions == 3
    assert H("TFTF").toggle_factor == 1.0
    assert H("TTFF").transitions == 1
    assert H("T").toggle_factor == 0.0


def test_runs():
    assert H("TTTFFT").runs() == [(True, 3), (False, 2), (True, 1)]
    assert H("").runs() == []
    assert H("F").runs() == [(False, 1)]


def test_windowed_frequency():
    h = H("TTTT" + "FFFF")
    wf = h.windowed_frequency(4)
    assert list(wf) == [1.0, 0.0]
    wf2 = h.windowed_frequency(3)
    assert len(wf2) == 3  # includes partial window


def test_windowed_rejects_bad_window():
    with pytest.raises(ValueError):
        H("TT").windowed_frequency(0)


def test_slicing():
    h = H("TTFFT")
    assert h[0] is True
    assert h[2] is False
    assert h[1:3].as_string() == "TF"


def test_equality():
    assert H("TF") == H("TF")
    assert H("TF") != H("FT")


def test_2bit_accuracy_biased():
    # Always-taken: mispredicts only while warming from weakly-not-taken.
    acc = H("T" * 100).prediction_accuracy_2bit()
    assert acc >= 0.98


def test_2bit_accuracy_alternating():
    # TFTF defeats the counter: accuracy collapses.
    acc = H("TF" * 50).prediction_accuracy_2bit()
    assert acc <= 0.55


def test_2bit_accuracy_phased():
    # TTTT...FFFF: two phases, one mispredict burst at the transition.
    acc = H("T" * 50 + "F" * 50).prediction_accuracy_2bit()
    assert acc > 0.9


@given(outcome_lists)
@settings(max_examples=100)
def test_frequency_bounds(outcomes):
    h = BranchHistory(outcomes)
    assert 0.0 <= h.frequency <= 1.0
    assert 0.0 <= h.toggle_factor <= 1.0


@given(outcome_lists)
@settings(max_examples=100)
def test_runs_partition(outcomes):
    h = BranchHistory(outcomes)
    runs = h.runs()
    assert sum(n for _, n in runs) == len(h)
    # Adjacent runs alternate values.
    for (a, _), (b, _) in zip(runs, runs[1:]):
        assert a != b


@given(outcome_lists)
@settings(max_examples=100)
def test_string_roundtrip(outcomes):
    h = BranchHistory(outcomes)
    assert BranchHistory.from_string(h.as_string()) == h


@given(outcome_lists)
@settings(max_examples=100)
def test_transitions_consistent_with_runs(outcomes):
    h = BranchHistory(outcomes)
    assert h.transitions == max(0, len(h.runs()) - 1)
