"""Iterative modulo scheduling (software pipelining) for single-block loops.

Why it's here: the paper's Section 3 argues that *prior* application of
guarded execution enables software pipelining — "It has been proved that
software pipelining is one such transformation which benefits from it
[10, 15].  Prior application reduces messy control flow, makes the job of
the cyclic scheduler much easier ...".  This module provides that cyclic
scheduler so the claim can be demonstrated quantitatively
(``benchmarks/bench_pipelining.py``): a loop whose body contains branches
cannot be modulo-scheduled at all, while its if-converted (hyperblock)
form schedules at an initiation interval close to the resource bound.

Scope: a *schedule analysis* in the style of Rau's iterative modulo
scheduling — it computes the achievable initiation interval (II) and the
kernel slot assignment under modulo resource reservation and loop-carried
dependences.  Prologue/epilogue code generation (modulo variable
expansion) is out of scope; the II itself is the quantity the paper's
argument needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..cfg.graph import CFG
from ..cfg.loops import Loop
from ..isa.instruction import Instruction
from .ddg import DDG, build_ddg
from .machine_model import DEFAULT_MODEL, MachineModel


@dataclass
class CrossEdge:
    """A loop-carried dependence: src of iteration *i* reaches dst of
    iteration *i + distance*."""

    src: int
    dst: int
    latency: int
    distance: int = 1


@dataclass
class ModuloSchedule:
    """Result of :func:`modulo_schedule`."""

    ii: int
    res_mii: int
    rec_mii: int
    start: dict[int, int] = field(default_factory=dict)

    @property
    def stages(self) -> int:
        if not self.start:
            return 0
        return max(self.start.values()) // self.ii + 1


class NotPipelinable(Exception):
    """The loop body cannot be modulo-scheduled (control flow inside the
    body, or no II up to the limit admits a schedule)."""


def cross_iteration_edges(instructions: list[Instruction],
                          model: MachineModel = DEFAULT_MODEL) -> list[CrossEdge]:
    """Loop-carried register and memory dependences at distance 1.

    For every register, the last write of iteration *i* feeds every
    upward-exposed read of iteration *i+1*; stores order against the next
    iteration's loads and stores conservatively (no disambiguation — the
    paper's "most conservative assumptions").
    """
    last_def: dict[str, int] = {}
    first_uses: dict[str, list[int]] = {}
    defined: set[str] = set()
    loads: list[int] = []
    stores: list[int] = []
    for i, ins in enumerate(instructions):
        for r in ins.uses():
            if r not in defined:
                first_uses.setdefault(r, []).append(i)
        for r in ins.defs():
            last_def[r] = i
            defined.add(r)
        if ins.is_load:
            loads.append(i)
        elif ins.is_store:
            stores.append(i)
    edges: list[CrossEdge] = []
    for reg, d in last_def.items():
        for u in first_uses.get(reg, ()):
            edges.append(CrossEdge(d, u, model.latency(instructions[d])))
        # Anti dependence across iterations: reads of the old value must
        # precede next iteration's write (latency 0 suffices).
        for u in first_uses.get(reg, ()):
            edges.append(CrossEdge(u, d, 0))
    for s in stores:
        for l in loads:
            edges.append(CrossEdge(s, l, 1))
        for s2 in stores:
            if s2 != s:
                edges.append(CrossEdge(s, s2, 1))
    return edges


def res_mii(instructions: list[Instruction],
            model: MachineModel = DEFAULT_MODEL) -> int:
    """Resource-constrained lower bound on II."""
    counts: dict[str, int] = {}
    for ins in instructions:
        counts[model.unit_key(ins)] = counts.get(model.unit_key(ins), 0) + 1
    bound = max((math.ceil(n / model.slots_for(k))
                 for k, n in counts.items()), default=1)
    width_bound = math.ceil(len(instructions) / model.issue_width)
    return max(1, bound, width_bound)


def rec_mii(instructions: list[Instruction],
            cross: list[CrossEdge],
            model: MachineModel = DEFAULT_MODEL,
            max_ii: int = 64) -> int:
    """Recurrence-constrained lower bound on II.

    Smallest II for which no dependence cycle has positive slack deficit —
    found by testing each candidate II with Bellman-Ford-style longest
    paths over edges weighted ``latency - II * distance`` (a positive
    cycle means the recurrence cannot close within II).
    """
    n = len(instructions)
    if n == 0:
        return 1
    ddg = build_ddg(instructions, model)
    edges: list[tuple[int, int, int, int]] = []
    for e in ddg.edges:
        edges.append((e.src, e.dst, e.weight, 0))
    for c in cross:
        edges.append((c.src, c.dst, c.latency, c.distance))

    def feasible(ii: int) -> bool:
        dist = [0] * n
        for _ in range(n):
            changed = False
            for (s, d, lat, k) in edges:
                w = lat - ii * k
                if dist[s] + w > dist[d]:
                    dist[d] = dist[s] + w
                    changed = True
            if not changed:
                return True
        return False  # still relaxing after n rounds: positive cycle

    for ii in range(1, max_ii + 1):
        if feasible(ii):
            return ii
    return max_ii


def modulo_schedule(instructions: list[Instruction],
                    model: MachineModel = DEFAULT_MODEL,
                    max_ii: int = 64) -> ModuloSchedule:
    """Compute a modulo schedule for a straight-line loop body.

    Raises :class:`NotPipelinable` when the body contains control flow
    (other than nothing — pass the body WITHOUT the closing branch) or no
    II up to *max_ii* admits a schedule.
    """
    for ins in instructions:
        if ins.is_control or ins.info.is_call:
            raise NotPipelinable(
                f"loop body contains control flow ({ins.op}); if-convert "
                f"first (paper Section 3)")
    if not instructions:
        return ModuloSchedule(ii=1, res_mii=1, rec_mii=1)
    cross = cross_iteration_edges(instructions, model)
    r_mii = res_mii(instructions, model)
    c_mii = rec_mii(instructions, cross, model, max_ii)
    ddg = build_ddg(instructions, model)
    order = ddg.topological_order()

    for ii in range(max(r_mii, c_mii), max_ii + 1):
        sched = _try_schedule(instructions, ddg, cross, order, ii, model)
        if sched is not None:
            return ModuloSchedule(ii=ii, res_mii=r_mii, rec_mii=c_mii,
                                  start=sched)
    raise NotPipelinable(f"no feasible II <= {max_ii}")


def _try_schedule(instructions, ddg: DDG, cross: list[CrossEdge],
                  order: list[int], ii: int,
                  model: MachineModel) -> Optional[dict[int, int]]:
    """One scheduling attempt at a fixed II (earliest-fit with modulo
    resource reservation, then cross-iteration validation)."""
    start: dict[int, int] = {}
    # Modulo reservation: per slot (t mod II), per unit class, a count.
    res: list[dict[str, int]] = [dict() for _ in range(ii)]
    width: list[int] = [0] * ii

    for i in order:
        earliest = 0
        for e in ddg.predecessors(i):
            if e.src in start:
                earliest = max(earliest, start[e.src] + e.weight)
        placed = False
        for t in range(earliest, earliest + ii):
            slot = t % ii
            key = model.unit_key(instructions[i])
            if width[slot] >= model.issue_width:
                continue
            if res[slot].get(key, 0) >= model.slots_for(key):
                continue
            start[i] = t
            width[slot] += 1
            res[slot][key] = res[slot].get(key, 0) + 1
            placed = True
            break
        if not placed:
            return None

    # Validate loop-carried constraints: t_dst + II*dist >= t_src + lat.
    for c in cross:
        if start[c.dst] + ii * c.distance < start[c.src] + c.latency:
            return None
    return start


def loop_pipeline_report(cfg: CFG, loop: Loop,
                         model: MachineModel = DEFAULT_MODEL,
                         max_ii: int = 64) -> ModuloSchedule:
    """Modulo-schedule a natural loop.

    The loop must consist of a single block (header == latch) whose only
    control instruction is the closing branch; otherwise
    :class:`NotPipelinable` is raised — which is exactly the paper's point
    about why if-conversion comes first.
    """
    if len(loop.body) != 1:
        raise NotPipelinable(
            f"loop body spans {len(loop.body)} blocks; if-convert to a "
            f"single hyperblock first")
    bb = cfg.block(loop.header)
    body = bb.instructions
    if body and body[-1].is_branch:
        body = body[:-1]
    return modulo_schedule(body, model, max_ii)
