"""Control-flow graph construction and re-linearization.

Call handling: ``jal``/``jalr`` end a basic block (they are scheduling
barriers) but have a single fall-through successor — the CFG is
intra-procedural, like the paper's region scheduler.  ``jr`` (return /
computed jump) and ``halt`` are exits with no static successors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..isa.instruction import make
from ..isa.program import Program
from .basic_block import BasicBlock


@dataclass
class Edge:
    """A CFG edge with a kind and an execution frequency.

    kind is ``"taken"`` (branch taken), ``"fall"`` (fall-through or
    not-taken), or ``"jump"`` (unconditional transfer).
    """

    src: int
    dst: int
    kind: str
    freq: float = 0.0

    def __repr__(self) -> str:
        return f"<{self.src}->{self.dst} {self.kind} freq={self.freq:g}>"


class CFG:
    """A control-flow graph over :class:`BasicBlock` objects.

    Blocks are kept in *layout order* (the order they will be emitted in by
    :meth:`to_program`).  ``blocks[0]`` is the entry block.
    """

    def __init__(self, name: str = "cfg"):
        self.name = name
        self.blocks: list[BasicBlock] = []
        self._by_id: dict[int, BasicBlock] = {}
        self.succ_edges: dict[int, list[Edge]] = {}
        self.pred_edges: dict[int, list[Edge]] = {}
        #: carried over from the source Program for re-linearization
        self.data_symbols: dict[str, int] = {}
        self.data_image: dict[int, int] = {}
        self.code_refs: dict[int, str] = {}

    # -- container ----------------------------------------------------------------

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def block(self, bid: int) -> BasicBlock:
        return self._by_id[bid]

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def new_block(self, label: Optional[str] = None,
                  after: Optional[int] = None) -> BasicBlock:
        """Create an empty block; *after* places it in layout order."""
        bid = (max(self._by_id) + 1) if self._by_id else 0
        bb = BasicBlock(bid=bid, label=label)
        if after is None:
            self.blocks.append(bb)
        else:
            pos = self.layout_index(after) + 1
            self.blocks.insert(pos, bb)
        self._by_id[bid] = bb
        self.succ_edges[bid] = []
        self.pred_edges[bid] = []
        return bb

    def layout_index(self, bid: int) -> int:
        for i, bb in enumerate(self.blocks):
            if bb.bid == bid:
                return i
        raise KeyError(bid)

    # -- edges --------------------------------------------------------------------

    def add_edge(self, src: int, dst: int, kind: str, freq: float = 0.0) -> Edge:
        e = Edge(src, dst, kind, freq)
        self.succ_edges[src].append(e)
        self.pred_edges[dst].append(e)
        return e

    def remove_edges_from(self, src: int) -> None:
        for e in self.succ_edges[src]:
            self.pred_edges[e.dst].remove(e)
        self.succ_edges[src] = []

    def succs(self, bid: int) -> list[int]:
        return [e.dst for e in self.succ_edges[bid]]

    def preds(self, bid: int) -> list[int]:
        return [e.src for e in self.pred_edges[bid]]

    def edge(self, src: int, dst: int) -> Edge:
        for e in self.succ_edges[src]:
            if e.dst == dst:
                return e
        raise KeyError(f"no edge {src}->{dst}")

    def taken_edge(self, bid: int) -> Optional[Edge]:
        for e in self.succ_edges[bid]:
            if e.kind == "taken":
                return e
        return None

    def fall_edge(self, bid: int) -> Optional[Edge]:
        for e in self.succ_edges[bid]:
            if e.kind == "fall":
                return e
        return None

    # -- traversal -----------------------------------------------------------------

    def reverse_postorder(self) -> list[int]:
        """Block ids in reverse postorder from the entry (forward dataflow
        order); unreachable blocks are appended in layout order."""
        seen: set[int] = set()
        post: list[int] = []

        def dfs(bid: int) -> None:
            stack = [(bid, iter(self.succs(bid)))]
            seen.add(bid)
            while stack:
                b, it = stack[-1]
                advanced = False
                for s in it:
                    if s not in seen:
                        seen.add(s)
                        stack.append((s, iter(self.succs(s))))
                        advanced = True
                        break
                if not advanced:
                    post.append(b)
                    stack.pop()

        if self.blocks:
            dfs(self.entry.bid)
        order = list(reversed(post))
        for bb in self.blocks:
            if bb.bid not in seen:
                order.append(bb.bid)
        return order

    def reachable(self) -> set[int]:
        seen: set[int] = set()
        work = [self.entry.bid] if self.blocks else []
        while work:
            b = work.pop()
            if b in seen:
                continue
            seen.add(b)
            work.extend(self.succs(b))
        return seen

    # -- construction from / linearization to a Program ------------------------------

    @classmethod
    def from_program(cls, prog: Program) -> "CFG":
        """Build the CFG of *prog*.

        Leaders: instruction 0, every branch/jump target, every instruction
        following a control transfer or call.
        """
        cfg = cls(name=prog.name)
        cfg.data_symbols = dict(prog.data_symbols)
        cfg.data_image = dict(prog.data_image)
        cfg.code_refs = dict(prog.code_refs)
        n = len(prog.instructions)
        if n == 0:
            return cfg
        targets = prog.branch_targets()
        leaders = {0}
        for i, ins in enumerate(prog.instructions):
            if ins.target is not None and not ins.is_store:
                leaders.add(targets[i])
            if ins.is_control or ins.info.is_call:
                if i + 1 < n:
                    leaders.add(i + 1)
        # Labels pointing one-past-end are modeled as an implicit exit label.
        order = sorted(leaders)
        index_to_block: dict[int, BasicBlock] = {}
        label_by_index: dict[int, str] = {}
        for name, idx in sorted(prog.labels.items()):
            if idx < n:
                label_by_index.setdefault(idx, name)
        for start in order:
            bb = cfg.new_block(label=label_by_index.get(start))
            index_to_block[start] = bb
        # Fill bodies.
        bounds = order + [n]
        for k, start in enumerate(order):
            end = bounds[k + 1]
            bb = index_to_block[start]
            bb.instructions = [prog.instructions[i] for i in range(start, end)]
        # Edges.
        for k, start in enumerate(order):
            end = bounds[k + 1]
            bb = index_to_block[start]
            last = prog.instructions[end - 1]
            next_bb = index_to_block.get(end)
            if last.is_branch:
                cfg.add_edge(bb.bid, index_to_block[targets[end - 1]].bid, "taken")
                if next_bb is not None:
                    cfg.add_edge(bb.bid, next_bb.bid, "fall")
            elif last.is_jump and last.target is not None:
                if last.info.is_call:
                    if next_bb is not None:
                        cfg.add_edge(bb.bid, next_bb.bid, "fall")
                else:
                    cfg.add_edge(bb.bid, index_to_block[targets[end - 1]].bid,
                                 "jump")
            elif last.op == "jr" and prog.code_refs:
                # The compiler laid out the jump table itself, so the
                # possible targets of a register-relative jump ARE known:
                # connect them (kind "indirect") so interpreter-style
                # dispatch loops are visible to loop detection and the
                # Figure 6 algorithm.
                seen_targets = set()
                for label in prog.code_refs.values():
                    t = prog.target_index(label)
                    if t in index_to_block and t not in seen_targets:
                        seen_targets.add(t)
                        cfg.add_edge(bb.bid, index_to_block[t].bid, "indirect")
            elif last.is_halt or last.op == "jr":
                pass  # exit
            elif last.op == "jalr":
                if next_bb is not None:
                    cfg.add_edge(bb.bid, next_bb.bid, "fall")
            else:
                if next_bb is not None:
                    cfg.add_edge(bb.bid, next_bb.bid, "fall")
        return cfg

    def to_program(self, name: Optional[str] = None) -> Program:
        """Re-linearize the CFG into a Program in layout order.

        Every block that is the destination of a taken/jump edge gets a
        label; fall-through edges whose destination is not the next block in
        layout get an explicit jump appended.
        """
        prog = Program(name=name or self.name)
        prog.data_symbols = dict(self.data_symbols)
        prog.data_image = dict(self.data_image)
        prog.code_refs = dict(self.code_refs)

        # Assign labels.
        label_of: dict[int, str] = {}
        used: set[str] = set()
        for bb in self.blocks:
            if bb.label:
                label_of[bb.bid] = bb.label
                used.add(bb.label)
        counter = 0
        for bb in self.blocks:
            if bb.bid not in label_of:
                while f".bb{counter}" in used:
                    counter += 1
                label_of[bb.bid] = f".bb{counter}"
                used.add(f".bb{counter}")
                counter += 1

        for i, bb in enumerate(self.blocks):
            prog.add_label(label_of[bb.bid], len(prog.instructions))
            body = list(bb.instructions)
            term = bb.terminator
            # Retarget the terminator at the taken/jump successor's label.
            if term is not None and term.is_branch:
                te = self.taken_edge(bb.bid)
                if te is None:
                    raise ValueError(f"block {bb.bid}: branch without taken edge")
                body[-1] = term.clone(target=label_of[te.dst])
            elif term is not None and term.is_jump and term.target is not None \
                    and not term.info.is_call:
                e = self.succ_edges[bb.bid][0] if self.succ_edges[bb.bid] else None
                if e is not None:
                    body[-1] = term.clone(target=label_of[e.dst])
            prog.extend(body)
            # Materialize fall-through: a block continuing into a
            # non-adjacent successor needs an explicit jump.
            falls_to: Optional[int] = None
            if term is None or term.is_branch or term.info.is_call:
                fe = self.fall_edge(bb.bid)
                if fe is not None:
                    falls_to = fe.dst
            if falls_to is not None:
                nxt = self.blocks[i + 1].bid if i + 1 < len(self.blocks) else None
                if nxt != falls_to:
                    prog.append(make("j", label_of[falls_to]))
        prog.validate()
        return prog

    # -- frequency annotation ---------------------------------------------------------

    def scale_frequencies(self, block_freqs: dict[int, float],
                          edge_freqs: Optional[dict[tuple[int, int], float]] = None,
                          ) -> None:
        """Attach execution frequencies to blocks and edges."""
        for bb in self.blocks:
            bb.freq = block_freqs.get(bb.bid, 0.0)
        if edge_freqs:
            for bid, edges in self.succ_edges.items():
                for e in edges:
                    e.freq = edge_freqs.get((e.src, e.dst), e.freq)

    def check(self) -> None:
        """Structural sanity checks; raises AssertionError on violation."""
        for bb in self.blocks:
            for k, ins in enumerate(bb.instructions):
                if ins.is_control and not ins.info.is_call \
                        and k != len(bb.instructions) - 1:
                    raise AssertionError(
                        f"block {bb.bid}: control instruction {ins.op} "
                        f"not at block end")
            term = bb.terminator
            kinds = sorted(e.kind for e in self.succ_edges[bb.bid])
            if term is not None and term.is_branch:
                if "taken" not in kinds:
                    raise AssertionError(f"block {bb.bid}: branch lacks taken edge")
            if term is not None and term.is_halt and kinds:
                raise AssertionError(f"block {bb.bid}: halt with successors")


def build_cfg(source: Program | str) -> CFG:
    """Convenience: build a CFG from a Program or assembly text."""
    if isinstance(source, str):
        from ..isa.parser import parse

        source = parse(source)
    return CFG.from_program(source)
