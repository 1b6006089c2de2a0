"""Branch melding: if-conversion without guards (the ``melded`` scheme).

Where :func:`~repro.transform.ifconvert.if_convert_diamond` predicates each
arm of a diamond behind a condition code, *melding* (PAPERS.md: "Eliminate
Branches by Melding IR Instructions") flattens the diamond into a fully
unconditional straight-line sequence:

1. the branch condition is computed into a cc register (reusing
   :func:`~repro.transform.ifconvert.branch_condition_to_cc`);
2. every arm's destination is software-renamed onto a scratch register, so
   both arms execute unconditionally without clobbering live state;
3. the surviving value of each original destination is selected with the
   *native* conditional moves (``cmovt``/``cmovf``) the R10000-class
   hardware actually offers — no fictional guarded ops remain, so the
   output runs without predication support.

The trade is the paper's classic one: melding executes both arms' work
every time (wasted issue slots on the not-taken side) in exchange for zero
control dependences and zero mispredictions on the melded branch.  The
transform is deliberately conservative: arms must be short straight-line
blocks of renameable int-destination ALU/load work.  Anything else —
stores, calls, cc writes, fp defs, divides (which could fault on the path
that would not have executed), partial-write cmovs, guarded ops — makes
the diamond ineligible and :func:`meld_diamond` returns None untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cfg.graph import CFG
from ..isa.instruction import Instruction, make
from ..isa.registers import RegisterPool, is_int_reg
from .ifconvert import branch_condition_to_cc, find_diamond
from .renaming import free_registers

#: Ops excluded from melded arms because executing them on the wrong path
#: could trap or diverge (integer divide/remainder by a value the guarded
#: path never produces).
_FAULTING_OPS = frozenset({"div", "rem"})


@dataclass
class MeldResult:
    """What :func:`meld_diamond` produced."""

    head: int
    removed_blocks: tuple[int, int]
    cc: str
    melded_ops: int      # arm instructions flattened into the head
    selects: int         # conditional moves emitted to merge values


def _meldable_arm(cfg: CFG, bid: int, max_arm_ops: int) -> bool:
    """True when every instruction of arm *bid* may run unconditionally."""
    body = [ins for ins in cfg.block(bid).instructions if not ins.is_control]
    if len(body) > max_arm_ops:
        return False
    for ins in body:
        if ins.is_store or ins.info.is_call or ins.is_guarded:
            return False
        if ins.op in _FAULTING_OPS:
            return False
        if ins.dest is None or not is_int_reg(ins.dest) or ins.dest == "r0":
            return False
        if ins.is_cmov:
            # Partial write: dest is an implicit input the renamer cannot
            # substitute.  Explicit self-uses (addi r5, r5, 1) are fine —
            # the first occurrence reads the original register.
            return False
    return True


def _rename_arm(cfg: CFG, bid: int,
                pool: RegisterPool) -> tuple[list[Instruction],
                                             dict[str, str]]:
    """Arm *bid* with every def renamed onto scratch registers.

    Returns (renamed instructions, {original dest: final scratch}).
    Raises IndexError when the pool runs dry — the caller treats that as
    "melding not possible here".
    """
    out: list[Instruction] = []
    mapping: dict[str, str] = {}
    for ins in cfg.block(bid).instructions:
        if ins.is_control:  # the trailing jump disappears
            continue
        sub = ins.with_substituted_uses(mapping)
        scratch = pool.take()
        mapping[ins.dest] = scratch
        out.append(sub.clone(dest=scratch, fresh_uid=True))
    return out, mapping


def meld_diamond(cfg: CFG, head: int, *, max_arm_ops: int = 4,
                 int_pool: RegisterPool | None = None,
                 cc_pool: RegisterPool | None = None,
                 ) -> Optional[MeldResult]:
    """Meld the diamond (or triangle) rooted at *head* in place.

    Returns None (CFG untouched) when the shape does not match, an arm is
    not meldable, or no scratch/cc registers are free.
    """
    shape = find_diamond(cfg, head)
    if shape is None:
        return None
    fall, taken, join = shape
    arms = [bid for bid in dict.fromkeys((fall, taken)) if bid != join]
    if not arms:
        return None
    for bid in arms:
        if not _meldable_arm(cfg, bid, max_arm_ops):
            return None

    if cc_pool is None:
        cc_pool = free_registers(cfg, "cc")
    if len(cc_pool) == 0:
        return None
    if int_pool is None:
        int_pool = free_registers(cfg, "int")
    cc = cc_pool.take()

    hb = cfg.block(head)
    branch = hb.terminator
    assert branch is not None
    try:
        cond = branch_condition_to_cc(branch, cc)
        fall_code, fall_map = (
            _rename_arm(cfg, fall, int_pool) if fall != join else ([], {}))
        taken_code, taken_map = (
            _rename_arm(cfg, taken, int_pool) if taken != join else ([], {}))
    except (ValueError, IndexError):
        cc_pool.release(cc)
        return None

    # Merge order: original program order of first definition (fall arm
    # then taken arm), so the emitted selects are deterministic.
    selects: list[Instruction] = []
    for dest in dict.fromkeys(list(fall_map) + list(taken_map)):
        if dest in taken_map:
            selects.append(make("cmovt", dest, taken_map[dest], cc))
        if dest in fall_map:
            selects.append(make("cmovf", dest, fall_map[dest], cc))

    hb.instructions = (hb.instructions[:-1] + cond
                       + fall_code + taken_code + selects)

    # Rewire: head now falls straight into the join (same surgery as
    # if_convert_diamond).
    cfg.remove_edges_from(head)
    for bid in arms:
        cfg.remove_edges_from(bid)
        cfg.blocks.remove(cfg.block(bid))
        del cfg._by_id[bid]
        del cfg.succ_edges[bid]
        cfg.pred_edges.pop(bid, None)
    cfg.add_edge(head, join, "fall",
                 freq=sum(e.freq for e in cfg.pred_edges[join]) or hb.freq)
    removed = list(arms)
    while len(removed) < 2:
        removed.append(-1)
    return MeldResult(head=head, removed_blocks=(removed[0], removed[1]),
                      cc=cc, melded_ops=len(fall_code) + len(taken_code),
                      selects=len(selects))
