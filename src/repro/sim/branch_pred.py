"""Branch prediction: 2-bit counter table, BTB, perfect prediction.

The three schemes of the paper's evaluation (Section 6, Tables 3/4):

* ``twobit`` — "the branch prediction table is a 512-entry, 2-bit buffer
  which maintains the four different states (strongly taken, strongly
  not-taken, weakly taken, weakly not-taken) of the previous branch
  outcomes", plus a BTB limited to branches with absolute target addresses.
* ``perfect`` — every branch (including subroutine calls, returns, and
  register-relative jumps, which the BTB cannot hold) is predicted
  correctly.  Used "mainly for theoretical purposes".
* the **proposed approach** is not a predictor change: it is compiled code
  (branch-likelies + guarded execution + split branches) running *on top of*
  the 2-bit scheme.  Branch-likely instructions are always predicted taken
  and consume neither a history counter nor a BTB entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instruction import Instruction


def check_entries(entries: int, name: str = "entries") -> None:
    """Refuse a table size the predictors cannot index: *entries* (called
    *name* by the caller) must be a positive power of two."""
    if entries < 1 or entries & (entries - 1):
        raise ValueError(
            f"{name} must be a positive power of two, got {entries!r}")


@dataclass
class PredictorStats:
    """Prediction accounting (feeds Table 1's "correctly predicted" column)."""

    conditional: int = 0
    correct: int = 0
    mispredicted: int = 0
    likely_branches: int = 0
    likely_correct: int = 0
    btb_misses: int = 0
    indirect_stalls: int = 0

    @property
    def accuracy(self) -> float:
        total = self.conditional + self.likely_branches
        good = self.correct + self.likely_correct
        return good / total if total else 1.0

    def to_dict(self) -> dict:
        """JSON-serializable form (engine artifact-cache payload)."""
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PredictorStats":
        """Inverse of :meth:`to_dict`."""
        return cls(**d)


class BranchPredictor:
    """Interface: :meth:`access` is called once per dynamic branch, in
    program order, with the actual outcome from the trace.  It returns True
    when fetch would have continued down the correct path (i.e. no
    misprediction penalty)."""

    def __init__(self) -> None:
        self.stats = PredictorStats()

    def access(self, index: int, ins: Instruction, taken: bool,
               target: int | None = None) -> bool:
        raise NotImplementedError

    def indirect_resolves_in_fetch(self) -> bool:
        """Whether register-target jumps (jr/jalr) redirect fetch without a
        stall (only true for the perfect scheme)."""
        return False


class TwoBitPredictor(BranchPredictor):
    """512-entry table of saturating 2-bit counters + a BTB.

    Counter states: 0 strongly not-taken, 1 weakly not-taken, 2 weakly
    taken, 3 strongly taken; predict taken when counter >= 2.  Counters
    initialize weakly not-taken.

    Branch-likely instructions bypass the table entirely: always predicted
    taken, never updating any counter (paper Section 3: "they don't have a
    specific history counter or an entry in the branch target buffer").

    The BTB holds targets for predicted-taken branches; a taken branch that
    misses in the BTB cannot redirect fetch that cycle and is charged as a
    misprediction-equivalent bubble.
    """

    def __init__(self, entries: int = 512, btb_entries: int = 512,
                 initial_state: int = 1):
        super().__init__()
        check_entries(entries)
        self.entries = entries
        self.mask = entries - 1
        self.table = [initial_state] * entries
        self.btb_entries = btb_entries
        self.btb: dict[int, int] = {}  # pc -> target (LRU-ish via dict order)

    def access(self, index: int, ins: Instruction, taken: bool,
               target: int | None = None) -> bool:
        st = self.stats
        if ins.is_likely:
            st.likely_branches += 1
            if taken:
                st.likely_correct += 1
                return True
            st.mispredicted += 1
            return False

        st.conditional += 1
        slot = index & self.mask
        counter = self.table[slot]
        predicted_taken = counter >= 2
        # Saturating update with the actual outcome.
        if taken:
            self.table[slot] = min(3, counter + 1)
        else:
            self.table[slot] = max(0, counter - 1)

        if predicted_taken != taken:
            st.mispredicted += 1
            if taken and ins.info.has_btb_entry and target is not None:
                self._btb_insert(index, target)
            return False

        if taken:
            # Correct direction, but fetch also needs the target address.
            if not ins.info.has_btb_entry or self._btb_lookup(index) is None:
                st.btb_misses += 1
                if ins.info.has_btb_entry and target is not None:
                    self._btb_insert(index, target)
                st.mispredicted += 1
                return False
        st.correct += 1
        return True

    def _btb_lookup(self, pc: int) -> int | None:
        return self.btb.get(pc)

    def _btb_insert(self, pc: int, target: int) -> None:
        if pc in self.btb:
            self.btb[pc] = target
            return
        if len(self.btb) >= self.btb_entries:
            # Evict the oldest entry (insertion order).
            self.btb.pop(next(iter(self.btb)))
        self.btb[pc] = target


class PerfectPredictor(BranchPredictor):
    """Every control transfer predicted correctly (paper's scheme 3)."""

    def access(self, index: int, ins: Instruction, taken: bool,
               target: int | None = None) -> bool:
        st = self.stats
        if ins.is_likely:
            st.likely_branches += 1
            st.likely_correct += 1
        else:
            st.conditional += 1
            st.correct += 1
        return True

    def indirect_resolves_in_fetch(self) -> bool:
        return True


class TwoLevelPredictor(BranchPredictor):
    """Local-history two-level adaptive predictor (PAg-style).

    The paper's future-work direction: "The algorithm can be extended to
    handle more complex correlations".  A per-branch shift register of the
    last ``history_bits`` outcomes indexes a table of 2-bit counters, so
    periodic patterns (TTF TTF ..., the toggle vectors the split transform
    targets) become predictable in hardware.  Provided as an ablation: how
    much of the proposed software scheme's benefit would stronger hardware
    capture on its own?

    Branch-likely handling and the BTB behave as in
    :class:`TwoBitPredictor`.
    """

    def __init__(self, entries: int = 512, btb_entries: int = 512,
                 history_bits: int = 4):
        super().__init__()
        check_entries(entries)
        self.entries = entries
        self.mask = entries - 1
        self.history_bits = history_bits
        self.hmask = (1 << history_bits) - 1
        self.histories = [0] * entries
        self.counters = [[1] * (1 << history_bits) for _ in range(entries)]
        self.btb_entries = btb_entries
        self.btb: dict[int, int] = {}

    def access(self, index: int, ins: Instruction, taken: bool,
               target: int | None = None) -> bool:
        st = self.stats
        if ins.is_likely:
            st.likely_branches += 1
            if taken:
                st.likely_correct += 1
                return True
            st.mispredicted += 1
            return False

        st.conditional += 1
        slot = index & self.mask
        hist = self.histories[slot]
        counter = self.counters[slot][hist]
        predicted_taken = counter >= 2
        # Update counter and history.
        if taken:
            self.counters[slot][hist] = min(3, counter + 1)
        else:
            self.counters[slot][hist] = max(0, counter - 1)
        self.histories[slot] = ((hist << 1) | int(taken)) & self.hmask

        if predicted_taken != taken:
            st.mispredicted += 1
            if taken and ins.info.has_btb_entry and target is not None:
                self._btb_insert(index, target)
            return False
        if taken:
            if not ins.info.has_btb_entry or index not in self.btb:
                st.btb_misses += 1
                if ins.info.has_btb_entry and target is not None:
                    self._btb_insert(index, target)
                st.mispredicted += 1
                return False
        st.correct += 1
        return True

    def _btb_insert(self, pc: int, target: int) -> None:
        if pc in self.btb:
            self.btb[pc] = target
            return
        if len(self.btb) >= self.btb_entries:
            self.btb.pop(next(iter(self.btb)))
        self.btb[pc] = target


class StaticTakenPredictor(BranchPredictor):
    """Predict every conditional branch taken (ablation baseline)."""

    def access(self, index: int, ins: Instruction, taken: bool,
               target: int | None = None) -> bool:
        st = self.stats
        if ins.is_likely:
            st.likely_branches += 1
            if taken:
                st.likely_correct += 1
                return True
            st.mispredicted += 1
            return False
        st.conditional += 1
        if taken:
            st.correct += 1
            return True
        st.mispredicted += 1
        return False


def make_predictor(name: str, bht_entries: int = 512,
                   btb_entries: int = 512) -> BranchPredictor:
    """Factory keyed by :attr:`MachineConfig.predictor`."""
    if name == "twobit":
        return TwoBitPredictor(entries=bht_entries, btb_entries=btb_entries)
    if name == "twolevel":
        return TwoLevelPredictor(entries=bht_entries, btb_entries=btb_entries)
    if name == "perfect":
        return PerfectPredictor()
    if name == "static-taken":
        return StaticTakenPredictor()
    raise ValueError(f"unknown predictor {name!r}")
