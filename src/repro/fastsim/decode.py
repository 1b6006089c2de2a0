"""Decode-once lowering: a program as dense per-PC tables + a block index.

The reference simulators re-inspect :class:`Instruction` objects on every
dynamic step (string compares, ``info`` property lookups, dict-keyed
register reads).  :func:`decode_program` does that inspection exactly once
per static instruction, producing :class:`DecodedProgram` — flat lists
indexed by PC — shared by both fast simulators:

* the functional codegen (:mod:`repro.fastsim.codegen`) consumes the
  block index and per-PC operands to emit one Python function per basic
  block;
* the fast timing model (:mod:`repro.fastsim.timing`) consumes the
  pre-resolved queue/unit/latency/dependence tables so its per-cycle
  loop touches only ints and tuples.

Registers are mapped into one flat id space so the timing model's rename
and dependence state can live in a single 72-slot list::

    r0..r31 -> 0..31      f0..f31 -> 32..63      cc0..cc7 -> 64..71

Block structure follows the functional executor's control flow: a block
ends after a conditional branch, a jump (``j``/``jal``/``jr``/``jalr``)
or ``halt``; ``fence`` is *not* a terminator (it only constrains the
timing model).  Every branch target, label and fall-through position is
a block leader, so the only mid-block entries a ``jr`` can produce come
from genuinely odd programs — those bail to the reference interpreter.

Decoded tables are cached per program *identity* (``id`` + weakref, the
Program dataclass is unhashable) and carry a staleness signature
(program identity, instruction count and label layout) so a table
decoded from another program object, or from a program that was later
mutated in place, is rejected with a :class:`DecodeError` instead of
mis-executed.  The tables refer to their program only weakly: the cache
must never keep a program alive.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional

from ..isa.opcodes import Unit
from ..isa.program import Program

#: Per-PC flag bits (``DecodedProgram.flags``).
F_BRANCH = 1       # conditional branch (incl. branch-likely)
F_LIKELY = 2
F_JUMP = 4         # any jump: j/jal/jr/jalr
F_JRJALR = 8       # register-target jump
F_FENCE = 16
F_MEM = 32         # load or store
F_HALT = 64
F_UNMODELED = 128  # Unit.NONE op the timing model does not admit
F_GUARDED = 256

#: Reservation-queue ids, mirroring ``pipeline._QUEUE_OF_UNIT`` order.
QUEUE_NAMES = ("alu", "ldst", "fp", "br")
#: Functional-unit ids, mirroring ``pipeline._UNIT_NAME`` order.
UNIT_NAMES = ("alu", "sft", "ldst", "br", "fpadd", "fpmul", "fpdiv")

_QUEUE_ID = {
    Unit.ALU: 0, Unit.SHIFT: 0, Unit.NONE: 0,
    Unit.MEM: 1,
    Unit.FPADD: 2, Unit.FPMUL: 2, Unit.FPDIV: 2,
    Unit.BRANCH: 3,
}
_UNIT_ID = {
    Unit.ALU: 0, Unit.NONE: 0,   # NONE ops occupy an ALU slot (reference)
    Unit.SHIFT: 1,
    Unit.MEM: 2,
    Unit.BRANCH: 3,
    Unit.FPADD: 4, Unit.FPMUL: 5, Unit.FPDIV: 6,
}

#: ``Unit.NONE`` opcodes the cycle model explicitly handles (keep in sync
#: with ``pipeline._MODELED_NONE_OPS``).
_MODELED_NONE_OPS = frozenset(("nop", "halt", "fence"))


class DecodeError(ValueError):
    """The program cannot be lowered (odd operands, unknown registers)."""


def reg_id(name: str) -> int:
    """Flat register id: r0..r31 -> 0..31, f -> 32..63, cc -> 64..71."""
    try:
        if name[0] == "r":
            i = int(name[1:])
            if 0 <= i < 32:
                return i
        elif name[0] == "f":
            i = int(name[1:])
            if 0 <= i < 32:
                return 32 + i
        elif name[0] == "c" and name[1] == "c":
            i = int(name[2:])
            if 0 <= i < 8:
                return 64 + i
    except (ValueError, IndexError):
        pass
    raise DecodeError(f"unknown register {name!r}")


@dataclass
class DecodedProgram:
    """Dense per-PC operand tables + basic-block index for one program."""

    #: weak reference to the decoded program (identity half of the
    #: staleness signature; a strong one would pin every program the
    #: decode cache has seen)
    prog_ref: weakref.ref
    name: str
    instrs: list                          # the program's Instruction list
    n: int
    #: staleness signature: (len(instructions), sorted label layout)
    nlabels: int
    labels_sig: tuple
    ops: list[str]
    flags: list[int]
    targets: list[int]                    # resolved target index, -1 if none
    queue_ids: list[int]
    unit_ids: list[int]
    lat_classes: list[str]
    use_ids: list[tuple]                  # register-id tuple per PC
    def_ids: list[int]                    # flat id of the renamed def, -1
    rename_ids: list[int]                 # 0 none / 1 int / 2 fp
    guards: list[Optional[tuple]]         # (cc index 0..7, sense) or None
    blocks: list[tuple]                   # (start, end_exclusive) per block
    block_at: list[int]                   # pc -> block id (leaders), else -1
    #: per-PC target map in FunctionalSim._targets form (slow-path seeding)
    targets_map: dict = field(default_factory=dict)
    #: compiled codegen variants, keyed (record_outcomes, trace)
    _compiled: dict = field(default_factory=dict, repr=False)
    #: timing metadata per machine config, keyed (cache_line, latencies)
    _timing_meta: dict = field(default_factory=dict, repr=False)

    def check_stale(self, prog: Program) -> None:
        """Reject tables decoded from another or a since-mutated program."""
        if (prog is not self.prog_ref()
                or len(prog.instructions) != self.n
                or len(prog.labels) != self.nlabels
                or tuple(sorted(prog.labels.items())) != self.labels_sig):
            raise DecodeError(
                f"stale decode tables for program {prog.name!r}: "
                f"{self.n} decoded instructions / {self.nlabels} labels vs "
                f"{len(prog.instructions)} / {len(prog.labels)} now")

    def timing_meta(self, cfg) -> tuple:
        """Per-config tables for the timing loop.

        Returns ``(lats, dmeta)``: resolved latency per PC, and one
        dispatch tuple per PC — ``(flags, icache line, queue id, rename
        class, unit id, def id, use ids)`` — so dispatch does a single
        indexed load + unpack instead of seven table lookups.
        """
        key = (cfg.cache_line, cfg.latencies)
        hit = self._timing_meta.get(key)
        if hit is None:
            shift = cfg.cache_line.bit_length() - 1
            lats = [cfg.latencies.of_class(c) for c in self.lat_classes]
            dmeta = [
                (self.flags[pc], (pc * 4) >> shift, self.queue_ids[pc],
                 self.rename_ids[pc], self.unit_ids[pc], self.def_ids[pc],
                 self.use_ids[pc])
                for pc in range(self.n)]
            hit = self._timing_meta[key] = (lats, dmeta)
        return hit


def _decode(prog: Program, prog_ref: weakref.ref) -> DecodedProgram:
    instrs = prog.instructions
    n = len(instrs)
    ops, flags, targets = [], [], []
    queue_ids, unit_ids, lat_classes = [], [], []
    use_ids, def_ids, rename_ids, guards = [], [], [], []
    targets_map: dict[int, int] = {}
    leaders = {0}
    for pc, ins in enumerate(instrs):
        info = ins.info
        op = ins.op
        fl = 0
        if info.is_branch:
            fl |= F_BRANCH
            if info.is_likely:
                fl |= F_LIKELY
        if info.is_jump:
            fl |= F_JUMP
            if op in ("jr", "jalr"):
                fl |= F_JRJALR
        if info.is_fence:
            fl |= F_FENCE
        if info.is_load or info.is_store:
            fl |= F_MEM
        if info.is_halt:
            fl |= F_HALT
        if info.unit is Unit.NONE and op not in _MODELED_NONE_OPS:
            fl |= F_UNMODELED
        if ins.guard is not None:
            fl |= F_GUARDED
            gid = reg_id(ins.guard.reg)
            if gid < 64:
                raise DecodeError(f"guard on non-cc register at pc={pc}")
            guards.append((gid - 64, bool(ins.guard.sense)))
        else:
            guards.append(None)
        tgt = -1
        if ins.target is not None:
            tgt = prog.target_index(ins.target)
            targets_map[pc] = tgt
        dest = ins.dest
        rid = 0
        if dest is not None and dest != "r0":
            if dest[0] == "r":
                rid = 1
            elif dest[0] == "f":
                rid = 2
        defs = ins.defs()
        ops.append(op)
        flags.append(fl)
        targets.append(tgt)
        queue_ids.append(_QUEUE_ID[info.unit])
        unit_ids.append(_UNIT_ID[info.unit])
        lat_classes.append(info.latency_class)
        use_ids.append(tuple(reg_id(r) for r in ins.uses()))
        def_ids.append(reg_id(defs[0]) if defs else -1)
        rename_ids.append(rid)
        if fl & (F_BRANCH | F_JUMP | F_HALT):
            leaders.add(pc + 1)
            if tgt >= 0:
                leaders.add(tgt)
    for idx in prog.labels.values():
        leaders.add(idx)
    starts = sorted(x for x in leaders if 0 <= x < n)
    blocks: list[tuple] = []
    block_at = [-1] * n
    bounds = starts + [n]
    for bid, start in enumerate(starts):
        blocks.append((start, bounds[bid + 1]))
        block_at[start] = bid
    return DecodedProgram(
        prog_ref=prog_ref, name=prog.name, instrs=instrs,
        n=n, nlabels=len(prog.labels),
        labels_sig=tuple(sorted(prog.labels.items())),
        ops=ops, flags=flags, targets=targets,
        queue_ids=queue_ids, unit_ids=unit_ids, lat_classes=lat_classes,
        use_ids=use_ids, def_ids=def_ids, rename_ids=rename_ids,
        guards=guards, blocks=blocks, block_at=block_at,
        targets_map=targets_map)


#: id -> decoded tables.  Keyed by identity because the Program
#: dataclass defines __eq__ without __hash__; the tables' weak reference
#: to their program evicts the slot when the program is collected, so a
#: recycled id can never alias a dead program's tables.
_DECODE_CACHE: dict = {}


def decode_program(prog: Program) -> DecodedProgram:
    """Decode *prog* (cached per identity; staleness-checked)."""
    key = id(prog)
    dec = _DECODE_CACHE.get(key)
    if dec is not None:
        try:
            dec.check_stale(prog)
            return dec
        except DecodeError:
            pass  # program mutated in place: re-decode

    # Bind the dict itself: at interpreter shutdown the module global may
    # already be None when the weakref callback fires.
    def _evict(_r, _key=key, _cache=_DECODE_CACHE):
        _cache.pop(_key, None)

    dec = _DECODE_CACHE[key] = _decode(prog, weakref.ref(prog, _evict))
    return dec
