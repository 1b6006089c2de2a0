"""Data-dependence graph over one basic block.

Edges:

* ``true``   — read-after-write, weighted by the producer's latency;
* ``anti``   — write-after-read, weight 0 (same-cycle OK on an OOO target
  with renaming, but ordering is preserved for the in-order view);
* ``output`` — write-after-write, weight 1;
* ``mem``    — conservative memory ordering (store-store, store-load,
  load-store; loads may reorder among themselves), weight 1 unless the
  scheduler's alias analysis can do better (we have none — the paper's
  "most conservative assumptions need to be made");
* ``ctrl``   — everything precedes the terminator; calls are barriers.

Guard registers participate like normal sources, so guarded instructions
depend on their predicate definition — the paper's "hidden constraints
(cycles etc.)" that make "the job of the scheduler hard".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.instruction import Instruction
from .machine_model import MachineModel, DEFAULT_MODEL


@dataclass
class DepEdge:
    src: int
    dst: int
    kind: str
    weight: int


@dataclass
class DDG:
    """Dependence graph; node ids are instruction positions in the block."""

    instructions: list[Instruction]
    edges: list[DepEdge] = field(default_factory=list)
    succs: dict[int, list[DepEdge]] = field(default_factory=dict)
    preds: dict[int, list[DepEdge]] = field(default_factory=dict)

    def add_edge(self, src: int, dst: int, kind: str, weight: int) -> None:
        # Keep only the strongest constraint per (src, dst): max weight.
        for e in self.succs.get(src, ()):
            if e.dst == dst:
                if weight > e.weight:
                    e.weight = weight
                    e.kind = kind
                return
        e = DepEdge(src, dst, kind, weight)
        self.edges.append(e)
        self.succs.setdefault(src, []).append(e)
        self.preds.setdefault(dst, []).append(e)

    def predecessors(self, i: int) -> list[DepEdge]:
        return self.preds.get(i, [])

    def successors(self, i: int) -> list[DepEdge]:
        return self.succs.get(i, [])

    def critical_path_heights(self, model: MachineModel) -> list[int]:
        """Longest-path height of each node to any sink, including its own
        latency — the classic list-scheduling priority."""
        n = len(self.instructions)
        height = [0] * n
        for i in reversed(self.topological_order()):
            lat = model.latency(self.instructions[i])
            best = lat
            for e in self.successors(i):
                best = max(best, e.weight + height[e.dst])
            height[i] = best
        return height

    def topological_order(self) -> list[int]:
        n = len(self.instructions)
        indeg = [len(self.preds.get(i, ())) for i in range(n)]
        order, work = [], [i for i in range(n) if indeg[i] == 0]
        work.sort()
        while work:
            i = work.pop(0)
            order.append(i)
            for e in self.successors(i):
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    work.append(e.dst)
            work.sort()
        if len(order) != n:
            raise ValueError("dependence graph has a cycle")
        return order


def build_ddg(instructions: list[Instruction],
              model: MachineModel = DEFAULT_MODEL) -> DDG:
    """Construct the dependence graph of a straight-line sequence."""
    ddg = DDG(instructions=list(instructions))
    n = len(instructions)
    last_def: dict[str, int] = {}
    last_uses: dict[str, list[int]] = {}
    last_store: int | None = None
    last_mems: list[int] = []   # loads since last store
    barrier: int | None = None  # last call

    for i, ins in enumerate(instructions):
        # Register dependences.
        for r in ins.uses():
            d = last_def.get(r)
            if d is not None:
                ddg.add_edge(d, i, "true", model.latency(instructions[d]))
            last_uses.setdefault(r, []).append(i)
        for r in ins.defs():
            d = last_def.get(r)
            if d is not None:
                ddg.add_edge(d, i, "output", 1)
            for u in last_uses.get(r, ()):
                if u != i:
                    ddg.add_edge(u, i, "anti", 0)
            last_uses[r] = [u for u in last_uses.get(r, ()) if u == i]
        # Partial writes (guarded / cmov) both read and write dest; keep the
        # def chain intact so later readers see ordering.
        for r in ins.defs():
            last_def[r] = i

        # Memory ordering.
        if ins.is_store:
            if last_store is not None:
                ddg.add_edge(last_store, i, "mem", 1)
            for l in last_mems:
                ddg.add_edge(l, i, "mem", 0)   # load before store
            last_store = i
            last_mems = []
        elif ins.is_load:
            if last_store is not None:
                ddg.add_edge(last_store, i, "mem", 1)
            last_mems.append(i)

        # Control: calls are barriers both ways; terminator is last.
        if barrier is not None:
            ddg.add_edge(barrier, i, "ctrl", 1)
        if ins.info.is_call:
            barrier = i
        if ins.info.is_fence:
            # A speculation barrier pins the surrounding order completely:
            # nothing that precedes it in program order may issue after it
            # (and via the ``barrier`` edge above, nothing after may issue
            # before) — otherwise the local scheduler would re-hoist the
            # very load the fence was inserted to hold back.
            for j in range(i):
                ddg.add_edge(j, i, "ctrl", 0)
            barrier = i
        if ins.is_control and i != n - 1 and not ins.info.is_call:
            raise ValueError("control instruction not at block end")
    # Terminator depends on everything with a path... enforce directly:
    if n and instructions[-1].is_control:
        for j in range(n - 1):
            # Branches may not move past anything that could change visible
            # state after the block: stores and register defs it might read
            # are covered by register/mem edges; add a ctrl edge only from
            # stores (side effects must precede the transfer).
            if instructions[j].is_store or instructions[j].info.is_call:
                ddg.add_edge(j, n - 1, "ctrl", 0)
    return ddg
