"""Speculative code motion (paper Section 1, Figure 1).

Two primitives:

* :func:`speculate_from_successor` — hoist instructions from the top of a
  successor block into a predecessor, above the branch that controls them,
  with software renaming, copy insertion, and forward substitution exactly
  as in the paper's Figure 1(b): the destination is renamed to a free
  register, a copy restores the original name at the source position, and
  forward substitution removes the resulting true dependence.
* :func:`duplicate_into_predecessors` — the complementary downward motion
  of Figure 2(c): copy the leading operations of a join block into every
  (unconditional) predecessor, shrinking the join's schedule.

Safety here is deliberately conservative ("most conservative assumptions
need to be made", Section 3): no stores, calls, control transfers or
guarded operations are speculated upward, and loads do not move past
skipped stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.graph import CFG
from ..cfg.liveness import liveness
from ..isa.instruction import Instruction, make
from ..isa.registers import RegisterPool
from .forward_subst import forward_substitute_block
from .renaming import free_registers


@dataclass
class SpeculationReport:
    """What one call to :func:`speculate_from_successor` did."""

    hoisted: list[Instruction] = field(default_factory=list)
    copies: list[Instruction] = field(default_factory=list)
    renamed: dict[str, str] = field(default_factory=dict)
    #: hoists the safety guard allowed only behind a serializing fence
    fenced: list[Instruction] = field(default_factory=list)
    #: candidate hoists the safety guard refused outright
    suppressed: int = 0

    @property
    def count(self) -> int:
        return len(self.hoisted)


def is_speculatable(ins: Instruction) -> bool:
    """May this instruction execute on a path it wasn't on before?

    Loads are speculatable (our memory model is non-faulting, mirroring the
    paper's dismissable-load assumption); stores, control transfers, calls
    and already-guarded operations are not.
    """
    if ins.is_control or ins.info.is_call or ins.is_store:
        return False
    if ins.is_guarded:
        return False
    if ins.dest is None:  # nothing to rename; nop etc. — pointless
        return False
    return True


def speculate_from_successor(cfg: CFG, pred_bid: int, succ_bid: int,
                             max_ops: int,
                             pool: RegisterPool | None = None,
                             allow_rename: bool = True,
                             hoist_guard=None) -> SpeculationReport:
    """Hoist up to *max_ops* instructions from the top of block *succ_bid*
    into *pred_bid* (immediately before its terminator).

    With ``allow_rename=False`` only instructions whose destination is dead
    on every other path move (no copy insertion) — the "free" hoists a
    profile-guided policy prefers on an out-of-order target, where a
    rename+copy pair lengthens the hot path it was meant to shorten.

    *hoist_guard*, when given, is a speculative-safety oracle (see
    :class:`repro.robust.spectre.SpectreHoistGuard`): called as
    ``guard(cfg, pred_bid, ins)`` per candidate, its answer either lets
    the hoist through (``"allow"``), refuses it (``"suppress"``), or
    requires a serializing ``fence`` planted directly in front of the
    hoisted instruction (``"fence"``) — the safe-speculative scheme.

    Returns a report; ``report.count`` may be less than *max_ops* when
    candidates run out (non-speculatable op reached, source defined by a
    skipped instruction, or the rename pool is exhausted).
    """
    if succ_bid not in cfg.succs(pred_bid):
        raise ValueError(f"{succ_bid} is not a successor of {pred_bid}")
    if cfg.preds(succ_bid) != [pred_bid]:
        # Hoisting removes instructions from succ; with another entry path
        # those instructions would be lost on it.  Not speculatable.
        return SpeculationReport()
    pred = cfg.block(pred_bid)
    succ = cfg.block(succ_bid)
    if pool is None and allow_rename:
        pool = free_registers(cfg, "int")
    live = liveness(cfg)

    report = SpeculationReport()
    moved_map: dict[str, str] = {}
    skipped_defs: set[str] = set()
    skipped_store = False
    insert_at = len(pred.instructions)
    if pred.terminator is not None:
        insert_at -= 1

    # Registers that must keep their old value if the hoisted instruction
    # executes on the wrong path: anything live out of pred toward OTHER
    # successors, plus anything pred itself still reads (its terminator).
    other_live: set[str] = set()
    for s in cfg.succs(pred_bid):
        if s != succ_bid:
            other_live |= live.live_in[s]
    term = pred.terminator
    if term is not None:
        other_live |= set(term.uses())

    new_succ: list[Instruction] = []
    for pos, ins in enumerate(succ.instructions):
        if report.count >= max_ops:
            new_succ.extend(succ.instructions[pos:])
            break
        movable = is_speculatable(ins)
        if movable:
            for r in ins.uses():
                if r in skipped_defs:
                    movable = False
                    break
        if movable and ins.is_load and skipped_store:
            movable = False
        fence_before = False
        if movable and hoist_guard is not None:
            # Query on the substituted form: earlier hoists may have
            # renamed the registers this candidate reads, and the guard's
            # taint query must see the names as they exist in pred.
            action = hoist_guard(cfg, pred_bid,
                                 ins.with_substituted_uses(moved_map))
            if action == "suppress":
                movable = False
                report.suppressed += 1
            elif action == "fence":
                fence_before = True
        if not movable:
            skipped_defs.update(ins.defs())
            if ins.is_store:
                skipped_store = True
            new_succ.append(ins)
            continue

        dest = ins.dest
        assert dest is not None
        hoistable = ins.with_substituted_uses(moved_map)
        # Renaming needed when the destination's old value can still be
        # observed: on another path out of pred, by pred's own terminator,
        # or by a skipped instruction later in succ (we can't see later
        # uses of the OLD value once ins is gone, so any earlier skipped
        # use means the old value was needed up to here).  A skipped
        # earlier write to dest also forces it, as does an earlier hoist
        # of dest: unrenamed, this write would land first and the skipped
        # write, or the copy a renamed hoist left in succ, would
        # overwrite it.
        needs_rename = (dest in other_live or dest in moved_map
                        or dest in skipped_defs)
        if not needs_rename and dest in live.live_in[succ_bid]:
            # Old value of dest flows into succ (used before this def by a
            # skipped instruction, or this is a partial write).
            needs_rename = True
        if needs_rename:
            if not allow_rename or len(pool) == 0:
                skipped_defs.update(ins.defs())
                new_succ.append(ins)
                continue
            fresh = pool.take()
            hoisted = hoistable.with_renamed_def(fresh)
            copy = make("mov", dest, fresh, speculated_copy=True)
            new_succ.append(copy)
            report.copies.append(copy)
            report.renamed[dest] = fresh
            moved_map[dest] = fresh
        else:
            hoisted = hoistable.clone(fresh_uid=True)
            moved_map[dest] = dest
        hoisted.ann["speculated_from"] = succ_bid
        if fence_before:
            # One barrier covers every consecutive flagged hoist at this
            # insertion point; don't stack redundant fences.
            prev = pred.instructions[insert_at - 1] if insert_at else None
            if prev is None or not prev.info.is_fence:
                barrier = make("fence", spectre_fence=True)
                pred.instructions.insert(insert_at, barrier)
                insert_at += 1
            report.fenced.append(hoisted)
        pred.instructions.insert(insert_at, hoisted)
        insert_at += 1
        report.hoisted.append(hoisted)

    succ.instructions = new_succ
    # Clean the copies' dependences downstream.
    forward_substitute_block(succ)
    return report


def duplicate_into_predecessors(cfg: CFG, join_bid: int, max_ops: int) -> int:
    """Move up to *max_ops* leading instructions of *join_bid* into every
    predecessor (paper Figure 2(c): "two operations are copied from B4 to
    B2 and B3 respectively").

    Legal only when every predecessor reaches the join unconditionally
    (single successor) — the moved operations must execute exactly when the
    join would have executed them.  Returns the number of instructions
    moved (0 if the shape is illegal).
    """
    preds = cfg.preds(join_bid)
    if not preds or join_bid == cfg.entry.bid:
        return 0
    for p in preds:
        if len(cfg.succs(p)) != 1:
            return 0
        term = cfg.block(p).terminator
        if term is not None and (term.is_branch or term.info.is_call):
            return 0
    join = cfg.block(join_bid)

    movable = 0
    for ins in join.instructions:
        if movable >= max_ops:
            break
        if ins.is_control or ins.info.is_call:
            break
        movable += 1
    if movable == 0:
        return 0

    moved = join.instructions[:movable]
    join.instructions = join.instructions[movable:]
    for p in preds:
        pb = cfg.block(p)
        at = len(pb.instructions)
        if pb.terminator is not None:
            at -= 1
        for k, ins in enumerate(moved):
            dup = ins.clone(fresh_uid=True)
            dup.ann["duplicated_from"] = join_bid
            pb.instructions.insert(at + k, dup)
    return movable
