"""Pattern detection in branch outcome vectors (paper Section 5).

"The instrumentable routine determines if the toggle patterns of this branch
are periodic enough to be instrumented using algebraic counters ...
Currently, the algorithm detects simple algebraic (or arithmetic)
correlations in the toggle bit vector which can be expressed easily using
unique counters."

Detected pattern kinds:

* ``constant`` — (almost) all outcomes identical;
* ``periodic`` — the vector repeats with a short period (e.g. TTF TTF ...),
  expressible with one modulo counter;
* ``phased``   — a small number of long homogeneous phases (e.g. the paper's
  40 % taken / 20 % toggling / 40 % not-taken), expressible with iteration
  counters ``i < b1``, ``i >= b2``;
* ``complex``  — anything else; not a split candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle
from typing import Optional, Sequence

from .bitvector import BranchHistory
from .segments import Segment, segment_history

#: Longest period :func:`detect_period` tries.
MAX_PERIOD = 16
#: Fraction of outcomes a model must explain: a periodic template's
#: match, or the majority outcome's share for the ``constant`` kind.
MIN_MATCH = 0.95


@dataclass(frozen=True)
class PatternInfo:
    """Result of :func:`analyze_pattern`."""

    kind: str                       # constant | periodic | phased | complex
    period: Optional[int] = None    # for periodic patterns
    segments: tuple[Segment, ...] = ()
    match: float = 1.0              # fraction of outcomes the model explains

    @property
    def is_instrumentable(self) -> bool:
        """Can this branch be split with simple algebraic counters?"""
        return self.kind in ("periodic", "phased")


def detect_period(history: BranchHistory) -> Optional[tuple[int, float]]:
    """Find the smallest period p <= :data:`MAX_PERIOD` such that
    ``v[i] == v[i mod p]`` for at least :data:`MIN_MATCH` of positions.
    Returns (period, match) or None.

    Period 1 (constant) is excluded — that's the ``constant`` kind.
    """
    v = history.outcomes
    n = len(v)
    if n < 4:
        return None
    for p in range(2, min(MAX_PERIOD, n // 2) + 1):
        match = sum(a == b for a, b in zip(v, cycle(v[:p]))) / n
        if match >= MIN_MATCH:
            return (p, match)
    return None


def analyze_pattern(history: BranchHistory, *, window: int = 8,
                    bias: float = 0.9, max_segments: int = 4) -> PatternInfo:
    """Classify the structure of a branch outcome vector.

    Order of tests: constant, then periodic (cheapest hardware encoding:
    one modulo counter), then phased (iteration-counter comparisons), else
    complex.
    """
    n = len(history)
    if n == 0:
        return PatternInfo(kind="constant", match=1.0)
    freq = history.frequency
    if freq >= MIN_MATCH or freq <= 1.0 - MIN_MATCH:
        return PatternInfo(kind="constant", match=max(freq, 1.0 - freq))

    periodic = detect_period(history)
    if periodic is not None:
        p, match = periodic
        return PatternInfo(kind="periodic", period=p, match=match)

    segs = segment_history(history, window=window, bias=bias)
    if 2 <= len(segs) <= max_segments:
        # Phased only if specialization actually buys predictability:
        # the homogeneous phases must cover a majority of iterations.
        biased_cover = sum(s.length for s in segs if s.kind != "mixed") / n
        if biased_cover >= 0.5:
            return PatternInfo(kind="phased", segments=tuple(segs),
                               match=biased_cover)
    return PatternInfo(kind="complex", segments=tuple(segs), match=0.0)


def is_instrumentable(history: BranchHistory, **kw) -> bool:
    """The paper's ``instrumentable(bj)`` predicate (Figure 6)."""
    return analyze_pattern(history, **kw).is_instrumentable


def boundaries_stable(histories: Sequence[BranchHistory],
                      tolerance: float = 0.1, **kw) -> bool:
    """Do multiple runs agree on phase boundaries (within *tolerance*,
    as a fraction of the run length)?

    The paper gathers toggle patterns "from previous runs"; splitting is
    only sound when the phase structure is a property of the program, not
    of one input.
    """
    infos = [analyze_pattern(h, **kw) for h in histories]
    if not infos:
        return False
    if any(not i.is_instrumentable for i in infos):
        return False
    kinds = {i.kind for i in infos}
    if len(kinds) != 1:
        return False
    if infos[0].kind == "periodic":
        return len({i.period for i in infos}) == 1
    # Phased: compare normalized boundary positions.
    norm: list[tuple[float, ...]] = []
    for h, i in zip(histories, infos):
        n = len(h) or 1
        norm.append(tuple(s.start / n for s in i.segments[1:]))
    if len({len(b) for b in norm}) != 1:
        return False
    ref = norm[0]
    return all(abs(x - r) <= tolerance
               for b in norm[1:] for x, r in zip(b, ref))
