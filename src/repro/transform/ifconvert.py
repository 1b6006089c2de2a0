"""Guarded execution / if-conversion (paper Sections 1 and 3).

:func:`if_convert_diamond` converts a two-arm region

::

        B1: ... ; bXX cond, TAKEN
        B2: (fall arm) ... ; j B4
        B3: (taken arm) ...
        B4: join

into straight-line code: B1 computes the branch condition into a
condition-code register, both arms' instructions execute guarded by the
predicate (taken arm under ``(cc)``, fall arm under ``(!cc)``), and control
falls through to the join.  "The control dependences originally present in
the form of conditional branches are eliminated and now treated as data
dependences."

The guarded operations are the paper's "fictional" fully-predicated
ops.  Section 3 expands them into conditional moves before final layout;
here no lowering pass runs: both simulators execute a guarded op natively
and annul it when its predicate is false.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cfg.graph import CFG
from ..isa.instruction import Guard, Instruction, make
from ..isa.registers import RegisterPool
from .renaming import free_registers

#: branch opcode -> (compare opcode producing "branch taken" in a cc reg,
#: second source is r0?)
_COND_OF_BRANCH = {
    "beq": ("cmpeq", False), "bne": ("cmpne", False),
    "beqz": ("cmpeq", True), "bnez": ("cmpne", True),
    "blez": ("cmple", True), "bgtz": ("cmpgt", True),
    "bltz": ("cmplt", True), "bgez": ("cmpge", True),
}


def branch_condition_to_cc(branch: Instruction, cc: str) -> list[Instruction]:
    """Instructions computing "branch would be taken" into cc register."""
    base = branch.op[:-1] if branch.is_likely else branch.op
    if base == "bct":
        return [make("cmov", cc, branch.srcs[0])]
    if base == "bcf":
        return [make("cmov", cc, branch.srcs[0]),
                make("cnot", cc, cc)]
    if base not in _COND_OF_BRANCH:
        raise ValueError(f"cannot express condition of {branch.op}")
    cmp_op, vs_zero = _COND_OF_BRANCH[base]
    if vs_zero:
        return [make(cmp_op, cc, branch.srcs[0], "r0")]
    return [make(cmp_op, cc, branch.srcs[0], branch.srcs[1])]


@dataclass
class IfConvertResult:
    """What :func:`if_convert_diamond` produced."""

    head: int
    removed_blocks: tuple[int, int]
    cc: str
    guarded_ops: int


def _is_simple_arm(cfg: CFG, bid: int, head: int, join: int) -> bool:
    """An arm is convertible when it has exactly one predecessor (the
    head), exactly one successor (the join), and contains no control
    transfers except an optional trailing jump, no calls, and no guarded
    instructions (no nested predication on this target)."""
    if cfg.preds(bid) != [head]:
        return False
    if cfg.succs(bid) != [join]:
        return False
    bb = cfg.block(bid)
    for i, ins in enumerate(bb.instructions):
        if ins.info.is_call or ins.is_guarded:
            return False
        if ins.is_control:
            if i != len(bb.instructions) - 1 or ins.is_branch or \
                    ins.op not in ("j",):
                return False
    return True


def find_diamond(cfg: CFG, head: int) -> Optional[tuple[int, int, int]]:
    """If *head* roots an if/else diamond, return (fall_arm, taken_arm,
    join); else None.  Also accepts triangles (one arm is the join itself)
    — those are returned with that arm id equal to the join id.
    """
    hb = cfg.block(head)
    term = hb.terminator
    if term is None or not term.is_branch:
        return None
    te, fe = cfg.taken_edge(head), cfg.fall_edge(head)
    if te is None or fe is None:
        return None
    taken, fall = te.dst, fe.dst
    if taken == fall:
        return None
    # Full diamond.
    for join_candidate in cfg.succs(fall):
        if cfg.succs(taken) == [join_candidate] and \
                cfg.succs(fall) == [join_candidate]:
            if _is_simple_arm(cfg, fall, head, join_candidate) and \
                    _is_simple_arm(cfg, taken, head, join_candidate):
                return (fall, taken, join_candidate)
    # Triangle: taken edge goes straight to the join.
    if taken in cfg.succs(fall) and _is_simple_arm(cfg, fall, head, taken):
        return (fall, taken, taken)
    # Triangle: fall-through goes straight to the join.
    if fall in cfg.succs(taken) and _is_simple_arm(cfg, taken, head, fall):
        return (fall, taken, fall)
    return None


def if_convert_diamond(cfg: CFG, head: int,
                       cc_pool: RegisterPool | None = None,
                       ) -> Optional[IfConvertResult]:
    """If-convert the diamond (or triangle) rooted at *head* in place.

    Returns None (CFG untouched) when the shape does not match, no cc
    register is free, or an arm is not convertible.
    """
    shape = find_diamond(cfg, head)
    if shape is None:
        return None
    fall, taken, join = shape
    if cc_pool is None:
        cc_pool = free_registers(cfg, "cc")
    if len(cc_pool) == 0:
        return None
    cc = cc_pool.take()

    hb = cfg.block(head)
    branch = hb.terminator
    assert branch is not None
    try:
        cond = branch_condition_to_cc(branch, cc)
    except ValueError:
        cc_pool.release(cc)
        return None

    hb.instructions = hb.instructions[:-1] + cond
    guarded = 0
    removed: list[int] = []
    for arm_bid, sense in ((fall, False), (taken, True)):
        if arm_bid == join:
            continue
        arm = cfg.block(arm_bid)
        for ins in arm.instructions:
            if ins.is_control:  # the trailing jump disappears
                continue
            hb.instructions.append(ins.guarded(Guard(cc, sense)))
            guarded += 1
        removed.append(arm_bid)

    # Rewire: head now falls straight into the join.
    cfg.remove_edges_from(head)
    for bid in removed:
        cfg.remove_edges_from(bid)
        cfg.blocks.remove(cfg.block(bid))
        del cfg._by_id[bid]
        del cfg.succ_edges[bid]
        # pred_edges entries from removed sources were cleared above;
        # drop the (now empty) key for hygiene.
        cfg.pred_edges.pop(bid, None)
    cfg.add_edge(head, join, "fall",
                 freq=sum(e.freq for e in cfg.pred_edges[join]) or hb.freq)
    while len(removed) < 2:
        removed.append(-1)
    return IfConvertResult(head=head, removed_blocks=(removed[0], removed[1]),
                           cc=cc, guarded_ops=guarded)
