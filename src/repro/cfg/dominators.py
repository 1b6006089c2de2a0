"""Dominator analysis (Cooper–Harvey–Kennedy iterative algorithm).

Used by loop detection (back edges target dominators) and by the region
scheduler to reason about speculation safety.
"""

from __future__ import annotations

from typing import Optional

from .graph import CFG


class Dominators:
    """Immediate-dominator tree for a CFG.

    Unreachable blocks have no idom and dominate nothing.
    """

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.idom: dict[int, Optional[int]] = {}
        self._order_index: dict[int, int] = {}
        self._compute()

    def _compute(self) -> None:
        cfg = self.cfg
        if not cfg.blocks:
            return
        rpo = [b for b in cfg.reverse_postorder() if b in cfg.reachable()]
        self._order_index = {b: i for i, b in enumerate(rpo)}
        entry = cfg.entry.bid
        idom: dict[int, Optional[int]] = {b: None for b in rpo}
        idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for b in rpo:
                if b == entry:
                    continue
                preds = [p for p in cfg.preds(b) if idom.get(p) is not None]
                if not preds:
                    continue
                new = preds[0]
                for p in preds[1:]:
                    new = self._intersect(idom, new, p)
                if idom[b] != new:
                    idom[b] = new
                    changed = True
        idom[entry] = None  # entry has no immediate dominator
        self.idom = idom

    def _intersect(self, idom: dict[int, Optional[int]], a: int, b: int) -> int:
        oi = self._order_index
        while a != b:
            while oi[a] > oi[b]:
                a = idom[a]  # type: ignore[assignment]
            while oi[b] > oi[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    def dominates(self, a: int, b: int) -> bool:
        """True if block *a* dominates block *b* (reflexive)."""
        if a == b:
            return True
        x: Optional[int] = b
        while x is not None:
            x = self.idom.get(x)
            if x == a:
                return True
        return False
