"""IR verifier: structural invariants every compiled program must satisfy.

The paper's pipeline is a chain of aggressive rewrites (branch splitting,
if-conversion, branch-likely rewriting, speculative code motion); a single
pass emitting a dangling target or a guard over a never-computed predicate
silently invalidates every downstream measurement.  The verifier is run by
the :mod:`repro.robust.sandbox` after every pass, and by the ``python -m
repro verify`` command on final outputs.

Invariants checked
------------------
* **labels** — every label index lies in ``[0, len]`` (one-past-the-end is
  an allowed exit label) and labels are unique per index table entry;
* **targets** — every branch/jump target and every data-segment code
  reference (jump table entry) resolves to a defined label;
* **registers** — every operand names a real register of the class its
  opcode expects (integer / floating-point / condition-code);
* **guards** — a guarded instruction's predicate register is a cc register
  that is defined on at least one path from the entry to the use (a guard
  that *no* execution can ever have set is a stale-predicate fault);
* **structure** — control transfers only terminate basic blocks, branches
  carry a taken edge, halt blocks have no successors, and the program ends
  in halt or an unconditional transfer (execution cannot fall off the end);
* **round-trip** — the program survives ``build_cfg`` → ``to_program``
  re-linearization and the result still validates.

The verifier never raises on bad *input* — it returns a list of
:class:`Violation` records (empty means clean).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from ..cfg.graph import CFG, build_cfg
from ..isa.instruction import Instruction
from ..isa.opcodes import Fmt
from ..isa.program import Program
from ..isa.registers import (
    ALL_REGS, CC_REGS, FP_REGS, INT_REGS, is_cc_reg, is_fp_reg, is_int_reg,
    is_register,
)


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which check, where, and what went wrong."""

    check: str    # "labels" | "targets" | "registers" | "guards" | ...
    where: str    # human-readable location ("instr 12 (beq)", "label .L3")
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.where}: {self.detail}"


class VerificationError(Exception):
    """Raised when a compiled program breaks an invariant; the proposed
    pipeline's final emission check raises it."""

    def __init__(self, violations: list[Violation], name: str = "program"):
        self.violations = violations
        lines = [f"{name}: {len(violations)} invariant violation(s)"]
        lines += [f"  {v}" for v in violations[:10]]
        if len(violations) > 10:
            lines.append(f"  ... and {len(violations) - 10} more")
        super().__init__("\n".join(lines))


# -- per-opcode register-class expectations ------------------------------------

#: Opcodes whose destination register is floating point.
_FP_DEST = {"fadd", "fsub", "fmul", "fdiv", "fmov", "fneg", "lwf", "cvtif"}
#: Opcodes whose sources are all floating point.
_FP_SRCS = {"fadd", "fsub", "fmul", "fdiv", "fmov", "fneg",
            "fcmpeq", "fcmplt", "fcmple", "cvtfi"}
#: Branches that read a condition-code register instead of an integer.
_CC_BRANCHES = {"bct", "bcf", "bctl", "bcfl"}


def _expected_classes(op: str, fmt: Fmt, n: int, has_dest: bool,
                      ) -> tuple[Optional[str], list[str]]:
    """Return (dest_class, [src_class, ...]) for an instruction with opcode
    *op*, cached format *fmt*, *n* sources and (if *has_dest*) a
    destination, where each class is ``"int"``, ``"fp"`` or ``"cc"``
    (None when no destination)."""
    if op in _FP_DEST or op in _FP_SRCS:
        dest = "fp" if op in _FP_DEST else (
            "cc" if op.startswith("fcmp") else "int")
        if op == "lwf":
            srcs = ["int"]
        elif op == "swf":
            srcs = ["fp", "int"]
        elif op in _FP_SRCS:
            srcs = ["fp"] * n
        else:  # cvtif
            srcs = ["int"] * n
        return (dest if has_dest else None), srcs
    if fmt == Fmt.CMP:
        return "cc", ["int"] * n
    if fmt in (Fmt.CCLOGIC1, Fmt.CCLOGIC2):
        return "cc", ["cc"] * n
    if fmt == Fmt.CMOVCC:
        return "int", ["int", "cc"][:n]
    if fmt in (Fmt.BRANCH1, Fmt.BRANCH2):
        cls = "cc" if op in _CC_BRANCHES else "int"
        return None, [cls] * n
    # Everything else (RRR/RRI/RI/RR/LOAD/STORE/JR/JALR/JUMP/CMOVR/NONE)
    # moves integer values.
    return ("int" if has_dest else None), ["int"] * n


_CLASS_CHECK = {"int": is_int_reg, "fp": is_fp_reg, "cc": is_cc_reg}
_CLASS_REGS = {"int": frozenset(INT_REGS), "fp": frozenset(FP_REGS),
               "cc": frozenset(CC_REGS)}
_CC_SET = _CLASS_REGS["cc"]


@lru_cache(maxsize=1024)
def _operand_sets(op: str, fmt: Fmt, n: int, has_dest: bool,
                  ) -> tuple[frozenset, tuple[frozenset, ...]]:
    """The registers each operand of such an instruction may name without
    a violation: (destination set, one set per source).

    Derived from :func:`_expected_classes`.  An operand whose class is not
    constrained (a branch's stray destination, a source past the
    opcode's list) only has to be some register.
    """
    dest_cls, src_cls = _expected_classes(op, fmt, n, has_dest)
    dest = ALL_REGS if dest_cls is None else _CLASS_REGS[dest_cls]
    srcs = [_CLASS_REGS[cls] for cls in src_cls[:n]]
    srcs += [ALL_REGS] * (n - len(srcs))
    return dest, tuple(srcs)


# -- individual checks ----------------------------------------------------------


def _check_labels(prog: Program) -> Iterable[Violation]:
    n = len(prog.instructions)
    for name, idx in prog.labels.items():
        if not isinstance(idx, int) or not 0 <= idx <= n:
            yield Violation("labels", f"label {name!r}",
                            f"index {idx!r} outside [0, {n}]")


def _check_targets(prog: Program) -> Iterable[Violation]:
    n = len(prog.instructions)
    for i, ins in enumerate(prog.instructions):
        if ins.target is None:
            continue
        idx = prog.labels.get(ins.target)
        if idx is None:
            yield Violation("targets", f"instr {i} ({ins.op})",
                            f"dangling target {ins.target!r}")
        elif not 0 <= idx < n and not ins.is_store:
            # A transfer to (or past) one-past-the-end runs off the program.
            yield Violation("targets", f"instr {i} ({ins.op})",
                            f"target {ins.target!r} -> {idx} outside code")
    for addr, label in prog.code_refs.items():
        if label not in prog.labels:
            yield Violation("targets", f"code_ref @0x{addr:X}",
                            f"dangling jump-table label {label!r}")


def _check_registers(prog: Program) -> Iterable[Violation]:
    # Set membership accepts a clean instruction; anything else gets the
    # per-operand diagnosis.  The sets are derived per opcode signature,
    # never per instruction, so an instruction a pass rewrote in place is
    # judged on its current fields (including a stale cached format).
    for i, ins in enumerate(prog.instructions):
        dest, srcs, guard = ins.dest, ins.srcs, ins.guard
        dest_regs, src_regs = _operand_sets(ins.op, ins.info.fmt, len(srcs),
                                            dest is not None)
        if (dest is None or dest in dest_regs) \
                and all(map(frozenset.__contains__, src_regs, srcs)) \
                and (guard is None or guard.reg in _CC_SET):
            continue
        yield from _diagnose_registers(i, ins)


def _diagnose_registers(i: int, ins: Instruction) -> Iterable[Violation]:
    """Every register violation of instruction *i*, operand by operand."""
    where = f"instr {i} ({ins.op})"
    regs = [("dest", ins.dest)] if ins.dest is not None else []
    regs += [(f"src{k}", s) for k, s in enumerate(ins.srcs)]
    bad_name = False
    for role, reg in regs:
        if not is_register(reg):
            yield Violation("registers", where,
                            f"{role} {reg!r} is not a register")
            bad_name = True
    if bad_name:
        return
    dest_cls, src_cls = _expected_classes(ins.op, ins.info.fmt,
                                          len(ins.srcs), ins.dest is not None)
    if dest_cls is not None and ins.dest is not None \
            and not _CLASS_CHECK[dest_cls](ins.dest):
        yield Violation("registers", where,
                        f"dest {ins.dest!r} not in class {dest_cls!r}")
    for k, (reg, cls) in enumerate(zip(ins.srcs, src_cls)):
        if not _CLASS_CHECK[cls](reg):
            yield Violation("registers", where,
                            f"src{k} {reg!r} not in class {cls!r}")
    if ins.guard is not None and not is_cc_reg(ins.guard.reg):
        yield Violation("registers", where,
                        f"guard register {ins.guard.reg!r} is not a "
                        f"cc register")


def _check_guards(prog: Program, cfg: CFG) -> Iterable[Violation]:
    """A guarded op whose predicate is defined on *no* path is stale.

    May-defined forward dataflow over cc registers: a guard register absent
    from the may-defined set at its use can never have been computed, so the
    guard reads whatever the machine happened to initialize — a classic
    silent-corruption fault after a broken if-conversion.
    """
    # Block-local: cc defs generated by each block.
    gen: dict[int, set[str]] = {}
    for bb in cfg.blocks:
        g: set[str] = set()
        for ins in bb.instructions:
            if ins.dest is not None and is_cc_reg(ins.dest):
                g.add(ins.dest)
        gen[bb.bid] = g
    # Union-based fixpoint (may-defined at block entry).
    entry_in: dict[int, set[str]] = {bb.bid: set() for bb in cfg.blocks}
    order = cfg.reverse_postorder()
    changed = True
    while changed:
        changed = False
        for bid in order:
            acc: set[str] = set()
            for p in cfg.preds(bid):
                acc |= entry_in[p] | gen[p]
            if acc - entry_in[bid]:
                entry_in[bid] |= acc
                changed = True
    for bb in cfg.blocks:
        defined = set(entry_in[bb.bid])
        for k, ins in enumerate(bb.instructions):
            if ins.guard is not None and is_cc_reg(ins.guard.reg) \
                    and ins.guard.reg not in defined:
                yield Violation(
                    "guards", f"block {bb.bid} op {k} ({ins.op})",
                    f"guard {ins.guard} reads predicate {ins.guard.reg!r} "
                    f"defined on no path from entry")
            if ins.dest is not None and is_cc_reg(ins.dest):
                defined.add(ins.dest)


def _check_structure(prog: Program, cfg: CFG) -> Iterable[Violation]:
    try:
        cfg.check()
    except AssertionError as exc:
        yield Violation("structure", "cfg", str(exc))
    if prog.instructions:
        last = prog.instructions[-1]
        if not (last.is_halt or (last.is_jump and not last.info.is_return)
                or last.op == "jr"):
            yield Violation("structure", f"instr {len(prog) - 1} ({last.op})",
                            "program can fall off the end (no halt or "
                            "unconditional transfer)")
        if last.is_branch or (last.is_jump and last.guard is not None):
            yield Violation("structure", f"instr {len(prog) - 1} ({last.op})",
                            "conditional transfer at end of program")


def _check_roundtrip(prog: Program) -> Iterable[Violation]:
    try:
        rebuilt = build_cfg(prog).to_program(prog.name)
        rebuilt.validate()
    except Exception as exc:  # noqa: BLE001 - any failure is the finding
        yield Violation("roundtrip", "build_cfg/to_program",
                        f"{type(exc).__name__}: {exc}")


# -- public API -----------------------------------------------------------------


def verify_program(prog: Program, *, roundtrip: bool = True) -> list[Violation]:
    """Run every check on *prog*; return all violations (empty = clean)."""
    out: list[Violation] = []
    out.extend(_check_labels(prog))
    out.extend(_check_targets(prog))
    out.extend(_check_registers(prog))
    # Structural / dataflow checks need a CFG; skip them (with a violation
    # already recorded above) when the program is too broken to build one.
    if not out:
        try:
            cfg = build_cfg(prog)
        except Exception as exc:  # noqa: BLE001
            out.append(Violation("structure", "build_cfg",
                                 f"{type(exc).__name__}: {exc}"))
            return out
        out.extend(_check_guards(prog, cfg))
        out.extend(_check_structure(prog, cfg))
        if roundtrip:
            out.extend(_check_roundtrip(prog))
    return out


def verify_cfg(cfg: CFG) -> list[Violation]:
    """Verify a CFG by re-linearizing it and checking the result.

    Linearization failures (e.g. a branch block that lost its taken edge)
    are themselves reported as violations rather than raised.
    """
    try:
        prog = cfg.to_program(cfg.name)
    except Exception as exc:  # noqa: BLE001
        return [Violation("structure", "to_program",
                          f"{type(exc).__name__}: {exc}")]
    return verify_program(prog, roundtrip=False)
