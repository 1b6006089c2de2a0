"""Iteration-space segmentation of branch behavior (paper Section 4).

"We take one step closer in refining the behavior of these non monotonic
sections splitting them (if necessary) into several better predicted (or
monotonic) sections."

Given a branch outcome bit vector, :func:`segment_history` partitions the
iteration space into maximal sections classified as ``taken`` (taken
frequency >= bias threshold), ``nottaken`` (<= 1 - threshold) or ``mixed``
(the "anomalous" sections, e.g. the toggling middle 20% of the paper's
Figure 3 example).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitvector import BranchHistory


@dataclass(frozen=True)
class Segment:
    """One section of a branch's iteration space.

    ``start``/``end`` index the outcome vector (end exclusive); ``kind`` is
    ``"taken"``, ``"nottaken"`` or ``"mixed"``; ``freq`` is the section's
    taken frequency.
    """

    start: int
    end: int
    kind: str
    freq: float

    @property
    def length(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:
        return (f"<Seg [{self.start},{self.end}) {self.kind} "
                f"freq={self.freq:.2f}>")


def _classify_window(freq: float, bias: float) -> str:
    if freq >= bias:
        return "taken"
    if freq <= 1.0 - bias:
        return "nottaken"
    return "mixed"


def segment_history(history: BranchHistory, window: int = 8,
                    bias: float = 0.9,
                    min_fraction: float = 0.05) -> list[Segment]:
    """Partition *history* into homogeneous sections.

    Algorithm: classify consecutive windows of length *window* by bias,
    merge adjacent windows of the same class, then absorb any section
    shorter than ``min_fraction`` of the total into its more-dominant
    neighbor (re-classifying the merged span).  Always returns a partition
    covering [0, len(history)).
    """
    n = len(history)
    if n == 0:
        return []
    if window <= 0:
        raise ValueError("window must be positive")
    wf = history.windowed_frequency(window)
    bounds = [min(n, (i + 1) * window) for i in range(len(wf))]
    starts = [i * window for i in range(len(wf))]

    arr = history.outcomes

    def mean(lo: int, hi: int) -> float:
        return sum(arr[lo:hi]) / (hi - lo)

    # Merge adjacent same-class windows.
    raw: list[Segment] = []
    for s, e, f in zip(starts, bounds, wf):
        kind = _classify_window(f, bias)
        if raw and raw[-1].kind == kind:
            prev = raw.pop()
            raw.append(Segment(prev.start, e, kind, mean(prev.start, e)))
        else:
            raw.append(Segment(s, e, kind, f))

    # Absorb sections that are tiny, or whose merge into a biased neighbor
    # preserves that neighbor's classification (a stray outcome inside a
    # long homogeneous phase must not fragment it).
    min_len = max(1, int(min_fraction * n))

    def absorbable(segs: list[Segment], i: int) -> bool:
        seg = segs[i]
        if seg.length < min_len:
            return True
        if seg.kind != "mixed":
            return False
        for j in (i - 1, i + 1):
            if 0 <= j < len(segs) and segs[j].kind != "mixed":
                lo, hi = min(i, j), max(i, j)
                f = mean(segs[lo].start, segs[hi].end)
                if _classify_window(f, bias) == segs[j].kind:
                    return True
        return False

    segs = raw
    changed = True
    while changed and len(segs) > 1:
        changed = False
        for i, seg in enumerate(segs):
            if not absorbable(segs, i):
                continue
            # Merge into a classification-preserving neighbor if one
            # exists, else the longer one.
            candidates = [j for j in (i - 1, i + 1) if 0 <= j < len(segs)]

            def preserves(j: int) -> bool:
                lo, hi = min(i, j), max(i, j)
                return (segs[j].kind != "mixed"
                        and _classify_window(mean(segs[lo].start,
                                                  segs[hi].end), bias)
                        == segs[j].kind)

            preserving = [j for j in candidates if preserves(j)]
            pool = preserving or candidates
            j = max(pool, key=lambda j: segs[j].length)
            lo, hi = min(i, j), max(i, j)
            a, b = segs[lo], segs[hi]
            f = mean(a.start, b.end)
            merged = Segment(a.start, b.end, _classify_window(f, bias), f)
            segs = segs[:lo] + [merged] + segs[hi + 1:]
            changed = True
            break

    # Coalesce equal-kind neighbors created by absorption.
    out: list[Segment] = []
    for seg in segs:
        if out and out[-1].kind == seg.kind:
            prev = out.pop()
            out.append(Segment(prev.start, seg.end, seg.kind,
                               mean(prev.start, seg.end)))
        else:
            out.append(seg)
    return out
