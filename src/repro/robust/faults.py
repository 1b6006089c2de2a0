"""Fault injection: deliberately corrupt programs, profiles and passes.

The point of a verifier is unprovable until something slips past it.  This
module defines a taxonomy of corruption the pipeline could realistically
emit — each :class:`FaultClass` knows *what* it corrupts and *which* layer
of the containment ladder is expected to catch it:

========== =====================================================
detector   caught by
========== =====================================================
verifier   static IR checks (:mod:`repro.robust.verifier`)
diffcheck  co-simulation (:mod:`repro.robust.diffcheck`)
sandbox    per-pass rollback (:mod:`repro.robust.sandbox`)
tolerate   nothing should fire: the pipeline must absorb the
           corruption (bad *feedback* may cost performance but
           must never cost correctness)
========== =====================================================

``tests/robust/test_faults.py`` parametrizes over every class;
``tools/inject_faults.py`` runs the same taxonomy against the real
benchmark suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from ..cfg.graph import CFG
from ..isa.instruction import Guard, make
from ..isa.program import Program
from ..isa.registers import CC_REGS, is_cc_reg, is_int_reg
from ..profilefb.profiledb import ProfileDB

#: Marker constant written by the register-clobber fault.
CLOBBER_VALUE = 0xBEE5


@dataclass(frozen=True)
class FaultClass:
    """One kind of corruption and the layer expected to catch it."""

    name: str
    target: str        # "program" | "profile" | "pass"
    detector: str      # "verifier" | "diffcheck" | "sandbox" | "tolerate"
    description: str


# -- program faults --------------------------------------------------------------
#
# Each injector yields independently corrupted *copies* of the input program
# (candidate injection sites in deterministic order); an empty iterator
# means the fault is not applicable to this program.


def _executed(counts: Optional[list[int]], i: int) -> bool:
    return counts is None or (i < len(counts) and counts[i] > 0)


def _dangling_target(prog: Program, rng: random.Random,
                     counts: Optional[list[int]]) -> Iterator[Program]:
    for i, ins in enumerate(prog.instructions):
        if ins.target is not None and not ins.is_store:
            bad = prog.copy()
            bad.instructions[i].target = ".__no_such_label__"
            yield bad
            return


def _target_out_of_range(prog: Program, rng: random.Random,
                         counts: Optional[list[int]]) -> Iterator[Program]:
    for i, ins in enumerate(prog.instructions):
        if ins.target is not None and not ins.is_store:
            bad = prog.copy()
            bad.labels[ins.target] = len(bad.instructions) + 7
            yield bad
            return


def _stale_predicate(prog: Program, rng: random.Random,
                     counts: Optional[list[int]]) -> Iterator[Program]:
    defined = {ins.dest for ins in prog.instructions
               if ins.dest is not None and is_cc_reg(ins.dest)}
    free = [cc for cc in CC_REGS if cc not in defined]
    if not free:
        return
    for i, ins in enumerate(prog.instructions):
        if ins.guard is None and not ins.is_control \
                and not ins.info.is_call and _executed(counts, i):
            bad = prog.copy()
            bad.instructions[i].guard = Guard(free[0], sense=True)
            yield bad
            return


def _wrong_register_class(prog: Program, rng: random.Random,
                          counts: Optional[list[int]]) -> Iterator[Program]:
    for i, ins in enumerate(prog.instructions):
        if ins.op in ("add", "sub", "mul", "and", "or", "xor") \
                and len(ins.srcs) == 2:
            bad = prog.copy()
            # Bypasses Instruction validation on purpose: a buggy pass
            # mutating in place would do exactly this.
            bad.instructions[i].srcs = (ins.srcs[0], "cc0")
            yield bad
            return


def _dropped_terminator(prog: Program, rng: random.Random,
                        counts: Optional[list[int]]) -> Iterator[Program]:
    if not prog.instructions:
        return
    last = prog.instructions[-1]
    if not (last.is_halt or last.is_jump or last.op == "jr"):
        return
    bad = prog.copy()
    bad.instructions.pop()
    n = len(bad.instructions)
    bad.labels = {k: min(v, n) for k, v in bad.labels.items()}
    yield bad


def _swapped_operands(prog: Program, rng: random.Random,
                      counts: Optional[list[int]]) -> Iterator[Program]:
    for i, ins in enumerate(prog.instructions):
        if ins.op in ("sub", "div", "rem", "sra", "srl", "sll") \
                and len(ins.srcs) == 2 and ins.srcs[0] != ins.srcs[1] \
                and _executed(counts, i):
            bad = prog.copy()
            bad.instructions[i].srcs = (ins.srcs[1], ins.srcs[0])
            yield bad


def _clobbered_register(prog: Program, rng: random.Random,
                        counts: Optional[list[int]]) -> Iterator[Program]:
    emitted = 0
    for i, ins in enumerate(prog.instructions):
        if not _executed(counts, i):
            continue
        victims = [r for r in ins.srcs if is_int_reg(r) and r != "r0"]
        if not victims:
            continue
        bad = prog.copy()
        bad.instructions.insert(i, make("li", victims[0], CLOBBER_VALUE))
        bad.labels = {k: (v if v <= i else v + 1)
                      for k, v in bad.labels.items()}
        yield bad
        emitted += 1
        if emitted >= 6:
            return


def _unknown_opcode(prog: Program, rng: random.Random,
                    counts: Optional[list[int]]) -> Iterator[Program]:
    # A buggy pass rewriting ``ins.op`` in place can synthesize a mnemonic
    # no simulator models while the cached OpInfo keeps the instruction
    # structurally plausible.  Both simulators must refuse to execute it
    # (raising UnmodeledOpcode, which diffcheck contains as a crash)
    # rather than silently treat it as a nop.
    emitted = 0
    for i, ins in enumerate(prog.instructions):
        if ins.is_control or ins.info.is_call or not _executed(counts, i):
            continue
        bad = prog.copy()
        bad.instructions[i].op = "__undocumented_op__"
        yield bad
        emitted += 1
        if emitted >= 4:
            return


def _branch_retarget(prog: Program, rng: random.Random,
                     counts: Optional[list[int]]) -> Iterator[Program]:
    emitted = 0
    for i, ins in enumerate(prog.instructions):
        if not ins.is_branch or not _executed(counts, i):
            continue
        for label, idx in sorted(prog.labels.items()):
            if label != ins.target and idx < len(prog.instructions):
                bad = prog.copy()
                bad.instructions[i].target = label
                yield bad
                emitted += 1
                if emitted >= 6:
                    return
                break


PROGRAM_FAULTS: dict[str, tuple[FaultClass, Callable]] = {
    fc.name: (fc, fn) for fc, fn in [
        (FaultClass("dangling-target", "program", "verifier",
                    "a control transfer targets an undefined label"),
         _dangling_target),
        (FaultClass("target-out-of-range", "program", "verifier",
                    "a label used as a branch target points past the end"),
         _target_out_of_range),
        (FaultClass("stale-predicate", "program", "verifier",
                    "a guard reads a cc register no path ever defines"),
         _stale_predicate),
        (FaultClass("wrong-register-class", "program", "verifier",
                    "an ALU source operand names a cc register"),
         _wrong_register_class),
        (FaultClass("dropped-terminator", "program", "verifier",
                    "the final halt/jump is deleted; execution can fall "
                    "off the end"),
         _dropped_terminator),
        (FaultClass("swapped-operands", "program", "diffcheck",
                    "a non-commutative op's sources are swapped "
                    "(structurally valid, semantically wrong)"),
         _swapped_operands),
        (FaultClass("clobbered-register", "program", "diffcheck",
                    "a live register is overwritten mid-stream"),
         _clobbered_register),
        (FaultClass("branch-retarget", "program", "diffcheck",
                    "a conditional branch is retargeted at another "
                    "existing label"),
         _branch_retarget),
        (FaultClass("unknown-opcode", "program", "diffcheck",
                    "an instruction's mnemonic is rewritten in place to "
                    "an opcode no simulator models"),
         _unknown_opcode),
    ]
}


def inject_program_fault(name: str, prog: Program,
                         rng: Optional[random.Random] = None,
                         counts: Optional[list[int]] = None,
                         ) -> Iterator[Program]:
    """Yield corrupted copies of *prog* for fault class *name*.

    *counts* (dynamic execution count per instruction index, e.g. from
    ``FunctionalSim.index_counts``) steers injection toward code that
    actually runs, so semantic faults are observable.
    """
    fc, fn = PROGRAM_FAULTS[name]
    return fn(prog, rng or random.Random(0), counts)


# -- profile faults --------------------------------------------------------------


def _flip_outcomes(db: ProfileDB, rng: random.Random) -> None:
    from ..profilefb.bitvector import BranchHistory
    from ..profilefb.classify import classify

    for bp in db.branches.values():
        bp.history = BranchHistory([not o for o in bp.history])
        bp.classification = classify(bp.history, db.config)


def _scramble_pcs(db: ProfileDB, rng: random.Random) -> None:
    n = max(len(db.program.instructions), 1)
    for bp in db.branches.values():
        bp.pc = (bp.pc * 7 + 13) % n


PROFILE_FAULTS: dict[str, tuple[FaultClass, Callable]] = {
    fc.name: (fc, fn) for fc, fn in [
        (FaultClass("profile-flipped-outcomes", "profile", "tolerate",
                    "every recorded branch outcome is inverted; decisions "
                    "go wrong but semantics must survive"),
         _flip_outcomes),
        (FaultClass("profile-stale-pcs", "profile", "tolerate",
                    "branch records point at the wrong static "
                    "instructions (stale feedback file)"),
         _scramble_pcs),
    ]
}


def corrupt_profile(name: str, db: ProfileDB,
                    rng: Optional[random.Random] = None) -> ProfileDB:
    """Corrupt *db* in place per fault class *name*; returns it."""
    fc, fn = PROFILE_FAULTS[name]
    fn(db, rng or random.Random(0))
    return db


# -- pass faults -----------------------------------------------------------------


def _pass_drops_taken_edge(cfg: CFG) -> None:
    for bb in cfg.blocks:
        term = bb.terminator
        if term is not None and term.is_branch:
            edges = cfg.succ_edges[bb.bid]
            for e in list(edges):
                if e.kind == "taken":
                    edges.remove(e)
                    cfg.pred_edges[e.dst].remove(e)
            return
    raise RuntimeError("no branch block to corrupt")


def _pass_emits_dangling_target(cfg: CFG) -> None:
    # Edges are the CFG's ground truth for branch targets (to_program
    # retargets terminators from the taken edge), so the CFG form of a
    # dangling target is a taken edge at a block id that does not exist.
    for bb in cfg.blocks:
        term = bb.terminator
        if term is not None and term.is_branch:
            e = cfg.taken_edge(bb.bid)
            if e is None:
                continue
            cfg.pred_edges[e.dst].remove(e)
            e.dst = 999_983  # no such block
            return
    raise RuntimeError("no branch block to corrupt")


def _pass_raises_after_mutation(cfg: CFG) -> None:
    # Corrupt first, then die: rollback must restore the pre-pass program.
    for bb in cfg.blocks:
        if bb.instructions:
            bb.instructions.insert(0, make("li", "r1", 0x0BAD))
            break
    raise RuntimeError("synthetic pass crash after partial mutation")


PASS_FAULTS: dict[str, tuple[FaultClass, Callable[[CFG], None]]] = {
    fc.name: (fc, fn) for fc, fn in [
        (FaultClass("pass-drops-taken-edge", "pass", "sandbox",
                    "a pass deletes a branch's taken edge; the CFG can no "
                    "longer be linearized"),
         _pass_drops_taken_edge),
        (FaultClass("pass-emits-dangling-target", "pass", "sandbox",
                    "a pass retargets a branch's taken edge at a block "
                    "that does not exist"),
         _pass_emits_dangling_target),
        (FaultClass("pass-raises-after-mutation", "pass", "sandbox",
                    "a pass crashes midway after mutating the CFG; the "
                    "sandbox must roll back the partial edit"),
         _pass_raises_after_mutation),
    ]
}


def buggy_pass(name: str) -> Callable[[CFG], None]:
    """Return the synthetic buggy pass for fault class *name*."""
    return PASS_FAULTS[name][1]
