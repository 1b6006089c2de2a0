"""Branch outcome bit vectors (paper Section 5).

"Each loop is instrumented with additional feedback metrics ... The previous
branch outcomes are recorded using bit vectors.  The patterns are studied and
then encoded ..."

:class:`BranchHistory` wraps one branch's ordered outcome sequence and
provides the statistics the feedback heuristics consume: taken frequency,
toggle factor, run-length encoding, and windowed frequencies.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np


class BranchHistory:
    """Ordered outcomes of one static branch across a run."""

    def __init__(self, outcomes: Sequence[bool] | Iterable[bool]):
        self._v = np.asarray(list(outcomes), dtype=bool)

    @classmethod
    def from_string(cls, s: str) -> "BranchHistory":
        """Build from a 'TTFF' style string (case-insensitive; 1/0 allowed).

        >>> BranchHistory.from_string("TTF").taken_count
        2
        """
        mapping = {"t": True, "1": True, "f": False, "0": False}
        try:
            return cls([mapping[c] for c in s.lower() if not c.isspace()])
        except KeyError as exc:
            raise ValueError(f"bad outcome character {exc.args[0]!r}") from None

    # -- basics ----------------------------------------------------------------

    def __len__(self) -> int:
        return int(self._v.size)

    def __iter__(self) -> Iterator[bool]:
        return iter(bool(x) for x in self._v)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BranchHistory(self._v[i])
        return bool(self._v[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BranchHistory):
            return NotImplemented
        return len(self) == len(other) and bool(np.all(self._v == other._v))

    def __hash__(self):  # pragma: no cover - unhashable by design
        raise TypeError("BranchHistory is mutable-adjacent; not hashable")

    def as_array(self) -> np.ndarray:
        return self._v.copy()

    def as_string(self) -> str:
        return "".join("T" if x else "F" for x in self._v)

    # -- statistics -------------------------------------------------------------

    @property
    def taken_count(self) -> int:
        return int(self._v.sum())

    @property
    def frequency(self) -> float:
        """Taken frequency in [0, 1] (the paper's branch frequency)."""
        return float(self._v.mean()) if self._v.size else 0.0

    @property
    def transitions(self) -> int:
        """Number of adjacent outcome changes (T->F or F->T)."""
        if self._v.size < 2:
            return 0
        return int(np.count_nonzero(self._v[1:] != self._v[:-1]))

    @property
    def toggle_factor(self) -> float:
        """Transitions normalized to [0, 1]: 0 = constant, 1 = alternating.

        The paper classifies branches as monotonic when this "toggle factor
        (gathered from previous runs) is below ... a threshold limit".
        """
        if self._v.size < 2:
            return 0.0
        return self.transitions / (self._v.size - 1)

    def runs(self) -> list[tuple[bool, int]]:
        """Run-length encoding: [(value, length), ...].

        >>> BranchHistory.from_string("TTTFFT").runs()
        [(True, 3), (False, 2), (True, 1)]
        """
        v = self._v
        if v.size == 0:
            return []
        change = np.flatnonzero(v[1:] != v[:-1]) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [v.size]))
        return [(bool(v[s]), int(e - s)) for s, e in zip(starts, ends)]

    def windowed_frequency(self, window: int) -> np.ndarray:
        """Taken frequency over consecutive non-overlapping windows.

        The final partial window (if any) is included.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        v = self._v.astype(np.float64)
        n = v.size
        out = []
        for start in range(0, n, window):
            out.append(v[start:start + window].mean())
        return np.asarray(out)

    def prediction_accuracy_2bit(self, initial_state: int = 1) -> float:
        """Accuracy a dedicated 2-bit counter would achieve on this history.

        Used by heuristics to estimate how much hardware speculation already
        captures (paper: "the amount of hardware speculation will be as per
        the current prediction accuracy for that branch").
        """
        state = initial_state
        correct = 0
        for taken in self._v:
            if (state >= 2) == bool(taken):
                correct += 1
            state = min(3, state + 1) if taken else max(0, state - 1)
        return correct / self._v.size if self._v.size else 1.0

    def __repr__(self) -> str:
        s = self.as_string()
        if len(s) > 32:
            s = s[:29] + "..."
        return (f"<BranchHistory n={len(self)} freq={self.frequency:.2f} "
                f"toggle={self.toggle_factor:.2f} {s}>")
