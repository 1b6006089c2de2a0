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


class PostDominators:
    """Post-dominators, computed on the reversed CFG.

    Exits are blocks without successors; a virtual exit unifies them.  Used
    to decide "control-equivalent" code motion (non-speculative global
    motion) in the region scheduler.
    """

    VIRTUAL_EXIT = -1

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.ipdom: dict[int, Optional[int]] = {}
        self._compute()

    def _compute(self) -> None:
        cfg = self.cfg
        if not cfg.blocks:
            return
        exits = [bb.bid for bb in cfg.blocks if not cfg.succs(bb.bid)]
        if not exits:
            # Irreducible endless loop: every block post-dominated only by itself.
            self.ipdom = {bb.bid: None for bb in cfg.blocks}
            return
        # Reverse graph with virtual exit.
        rsucc: dict[int, list[int]] = {bb.bid: list(cfg.preds(bb.bid))
                                       for bb in cfg.blocks}
        rsucc[self.VIRTUAL_EXIT] = list(exits)
        rpred: dict[int, list[int]] = {bb.bid: list(cfg.succs(bb.bid))
                                       for bb in cfg.blocks}
        for e in exits:
            rpred[e] = rpred[e] + [self.VIRTUAL_EXIT]
        rpred[self.VIRTUAL_EXIT] = []

        # Postorder from virtual exit over the reverse graph.
        seen: set[int] = set()
        post: list[int] = []

        def dfs(root: int) -> None:
            stack = [(root, iter(rsucc.get(root, ())))]
            seen.add(root)
            while stack:
                b, it = stack[-1]
                advanced = False
                for s in it:
                    if s not in seen:
                        seen.add(s)
                        stack.append((s, iter(rsucc.get(s, ()))))
                        advanced = True
                        break
                if not advanced:
                    post.append(b)
                    stack.pop()

        dfs(self.VIRTUAL_EXIT)
        rpo = list(reversed(post))
        oi = {b: i for i, b in enumerate(rpo)}
        ipdom: dict[int, Optional[int]] = {b: None for b in rpo}
        ipdom[self.VIRTUAL_EXIT] = self.VIRTUAL_EXIT

        def intersect(a: int, b: int) -> int:
            while a != b:
                while oi[a] > oi[b]:
                    a = ipdom[a]  # type: ignore[assignment]
                while oi[b] > oi[a]:
                    b = ipdom[b]  # type: ignore[assignment]
            return a

        changed = True
        while changed:
            changed = False
            for b in rpo:
                if b == self.VIRTUAL_EXIT:
                    continue
                preds = [p for p in rpred.get(b, ()) if ipdom.get(p) is not None]
                if not preds:
                    continue
                new = preds[0]
                for p in preds[1:]:
                    new = intersect(new, p)
                if ipdom[b] != new:
                    ipdom[b] = new
                    changed = True
        ipdom[self.VIRTUAL_EXIT] = None
        self.ipdom = ipdom

    def post_dominates(self, a: int, b: int) -> bool:
        """True if *a* post-dominates *b* (reflexive)."""
        if a == b:
            return True
        x: Optional[int] = b
        while x is not None:
            x = self.ipdom.get(x)
            if x == a:
                return True
        return False
