"""Natural-loop detection and the loop nesting forest.

The paper's algorithm (Figure 6) starts with "for each procedure, detect all
loops and create a loop-list L; for each branch in L ...".  This module
provides that loop list: back edges (edges whose destination dominates their
source), the natural loop body of each back edge, headers, exits, and the
classification of each branch inside a loop as *forward* (target later in
layout) or *backward* (the loop-closing branch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..isa.instruction import Instruction
from .dominators import Dominators
from .graph import CFG


@dataclass
class Loop:
    """One natural loop.

    Attributes:
        header: block id of the loop header.
        body: set of block ids in the loop (header included).
        back_edges: (tail, header) pairs that close this loop.
        exits: (src, dst) edges leaving the loop.
        parent: enclosing loop, or None for a top-level loop.
    """

    header: int
    body: set[int] = field(default_factory=set)
    back_edges: list[tuple[int, int]] = field(default_factory=list)
    exits: list[tuple[int, int]] = field(default_factory=list)
    parent: Optional["Loop"] = None
    children: list["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        d, p = 1, self.parent
        while p is not None:
            d += 1
            p = p.parent
        return d

    def __repr__(self) -> str:
        return (f"<Loop header={self.header} blocks={sorted(self.body)} "
                f"depth={self.depth}>")


@dataclass
class LoopBranch:
    """A conditional branch inside a loop, as the paper's algorithm sees it.

    direction is ``"forward"`` when the branch target lies later in layout
    order (an if/else or exit test) and ``"backward"`` when it targets an
    earlier block (typically the loop-closing branch).
    """

    loop: Loop
    block: int
    instr: Instruction
    direction: str  # "forward" | "backward"
    is_exit: bool   # does the taken edge leave the loop?


class LoopForest:
    """All natural loops of a CFG, nested."""

    def __init__(self, cfg: CFG, doms: Optional[Dominators] = None):
        self.cfg = cfg
        self.doms = doms or Dominators(cfg)
        self.loops: list[Loop] = []
        self._find_loops()
        self._nest()

    def _find_loops(self) -> None:
        cfg = self.cfg
        reachable = cfg.reachable()
        by_header: dict[int, Loop] = {}
        for bb in cfg.blocks:
            if bb.bid not in reachable:
                continue
            for succ in cfg.succs(bb.bid):
                if self.doms.dominates(succ, bb.bid):
                    loop = by_header.setdefault(succ, Loop(header=succ))
                    loop.back_edges.append((bb.bid, succ))
                    self._collect_body(loop, bb.bid)
        for loop in by_header.values():
            loop.body.add(loop.header)
            for bid in sorted(loop.body):
                for succ in cfg.succs(bid):
                    if succ not in loop.body:
                        loop.exits.append((bid, succ))
            self.loops.append(loop)
        self.loops.sort(key=lambda l: (len(l.body), l.header))

    def _collect_body(self, loop: Loop, tail: int) -> None:
        # Standard natural-loop body: header + all nodes reaching the tail
        # without passing through the header.
        if tail == loop.header:
            return
        stack = [tail]
        while stack:
            b = stack.pop()
            if b in loop.body or b == loop.header:
                continue
            loop.body.add(b)
            stack.extend(self.cfg.preds(b))

    def _nest(self) -> None:
        # Smallest-first order means the first strictly-containing loop seen
        # is the immediate parent.
        for i, inner in enumerate(self.loops):
            for outer in self.loops[i + 1:]:
                if inner.header in outer.body and inner is not outer \
                        and inner.body <= outer.body:
                    inner.parent = outer
                    outer.children.append(inner)
                    break

    def loop_of_block(self, bid: int) -> Optional[Loop]:
        """The innermost loop containing *bid*, or None."""
        best: Optional[Loop] = None
        for loop in self.loops:
            if bid in loop.body and (best is None or len(loop.body) < len(best.body)):
                best = loop
        return best

    def branches(self, loop: Loop) -> list[LoopBranch]:
        """All conditional branches in *loop*, classified per Figure 6."""
        cfg = self.cfg
        layout = {bb.bid: i for i, bb in enumerate(cfg.blocks)}
        out: list[LoopBranch] = []
        for bid in sorted(loop.body, key=layout.get):
            bb = cfg.block(bid)
            term = bb.terminator
            if term is None or not term.is_branch:
                continue
            te = cfg.taken_edge(bid)
            if te is None:
                continue
            direction = "backward" if layout[te.dst] <= layout[bid] else "forward"
            out.append(LoopBranch(
                loop=loop, block=bid, instr=term, direction=direction,
                is_exit=te.dst not in loop.body))
        return out
