"""Speculative-safety (Spectre-v1) taint analysis over the CFG.

The compiler's headline optimization hoists loads above the branches that
guard them (:mod:`repro.transform.speculation`, paper Figure 1).  On a
machine with speculative execution that is exactly the code motion behind
the classic *bounds-check-bypass* gadget: a branch on untrusted data, a
load whose address depends on that data, and a second memory access whose
address depends on the loaded value — the last access turns the
speculatively-read secret into a cache-observable signal.

This module provides a deliberately conservative static detector:

* **Taint lattice.**  Two levels per register: :data:`TAINT_UNTRUSTED`
  (level 1 — derived from a configured untrusted-input register) and
  :data:`TAINT_SECRET` (level 2 — loaded through a tainted address).  Any
  instruction whose sources carry taint taints its destination (so taint
  survives software renaming, copy insertion, and forward substitution);
  a load through an *untainted* address clears its destination.
* **Fixpoint.**  Forward dataflow over the CFG, merging per-register taint
  with max at joins; the configured untrusted registers are tainted at
  program entry (the "function arguments from an attacker" model).
* **Gadget walk.**  For every conditional branch whose condition is
  tainted, both successor paths are walked up to ``sew`` instructions (the
  speculative-execution window — how far a mispredicted path can run
  before the branch resolves).  A load through a tainted address inside
  the window becomes the *access*; any later load/store inside the window
  whose address depends on the accessed value is the *transmitter* and
  yields a :class:`SpectreFinding`.

Findings are schema-versioned (:mod:`repro.core.serde`) and classified
via :data:`FINDING_KINDS`, mirroring the
:data:`~repro.robust.diffcheck.DIVERGENCE_KINDS` registry.

The same machinery drives the ``safe-speculative`` compilation scheme:
:class:`SpectreHoistGuard` answers, for each candidate hoist, whether
moving a load above a branch would create a flagged pattern — the
speculation pass then suppresses the hoist or inserts a ``fence``
(:mod:`repro.isa.opcodes`) in front of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cfg.graph import CFG, build_cfg
from ..core import serde
from ..isa.instruction import Instruction
from ..isa.program import Program

#: Registers treated as attacker-controlled at program entry by default —
#: the MIPS argument registers a0-a3.  :mod:`repro.isa.randprog` keeps the
#: same set free for its gadget-seeding mode.
UNTRUSTED_REGS = ("r4", "r5", "r6", "r7")

#: Taint levels: value derived from an untrusted input…
TAINT_UNTRUSTED = 1
#: …and value loaded from memory through a tainted address (a "secret").
TAINT_SECRET = 2

#: Finding-kind labels :meth:`SpectreFinding.kind` can return, mirroring
#: :data:`repro.robust.diffcheck.DIVERGENCE_KINDS`: the transmitter is the
#: second dependent access, and its flavor names the gadget.
FINDING_KINDS = ("gadget-load-load", "gadget-load-store")

#: Flat scalar fields shared by :meth:`SpectreFinding.to_dict`/``from_dict``.
_FINDING_FIELDS = (
    "program", "branch_uid", "branch_op", "branch_block",
    "access_uid", "access_op", "access_block",
    "transmit_uid", "transmit_op", "transmit_block", "transmit_is_store",
    "distance", "sew",
)


@dataclass(frozen=True)
class SpectreConfig:
    """Knobs of the analysis and of the safe-speculative scheme.

    ``sew`` is the speculative-execution window: the number of dynamic
    instructions a mispredicted path is assumed to run before the branch
    resolves and the pipeline squashes (the R10000's ROB depth is the
    natural ceiling).  ``mode`` selects what the safe scheme does with a
    flagged hoist: ``"fence"`` hoists but plants a serializing ``fence``
    in front, ``"suppress"`` refuses the hoist entirely.
    """

    untrusted: tuple[str, ...] = UNTRUSTED_REGS
    sew: int = 16
    mode: str = "fence"  # fence | suppress

    def __post_init__(self):
        if self.mode not in ("fence", "suppress"):
            raise ValueError(f"unknown spectre mode {self.mode!r}")
        if self.sew < 1:
            raise ValueError("sew must be >= 1")


@dataclass
class SpectreFinding:
    """One flagged gadget: branch → dependent access → transmitter."""

    program: str
    branch_uid: int
    branch_op: str
    branch_block: int
    tainted_condition: tuple[str, ...]
    access_uid: int
    access_op: str
    access_block: int
    transmit_uid: int
    transmit_op: str
    transmit_block: int
    transmit_is_store: bool
    distance: int          # instructions from the branch to the transmitter
    sew: int               # window the walk used
    path: tuple[int, ...] = ()   # block ids from branch to transmitter

    @property
    def kind(self) -> str:
        """Gadget class (one of :data:`FINDING_KINDS`)."""
        return ("gadget-load-store" if self.transmit_is_store
                else "gadget-load-load")

    def __str__(self) -> str:
        return (f"{self.kind}: {self.program or '<program>'} "
                f"block {self.branch_block} {self.branch_op} on "
                f"{'/'.join(self.tainted_condition)} -> "
                f"{self.access_op}@b{self.access_block} -> "
                f"{self.transmit_op}@b{self.transmit_block} "
                f"(distance {self.distance} <= sew {self.sew})")

    def to_dict(self) -> dict:
        """JSON-serializable form (round-trips via :meth:`from_dict`).

        Includes the derived ``kind`` so downstream triage can bucket
        without recomputing it.
        """
        d = serde.dump_fields(self, _FINDING_FIELDS)
        d.update(tainted_condition=list(self.tainted_condition),
                 path=list(self.path), kind=self.kind)
        return serde.stamp(d)

    @classmethod
    def from_dict(cls, d: dict) -> "SpectreFinding":
        """Inverse of :meth:`to_dict` (derived ``kind`` is recomputed;
        the schema version is checked)."""
        serde.check(d, "SpectreFinding")
        return cls(tainted_condition=tuple(d["tainted_condition"]),
                   path=tuple(d["path"]),
                   **serde.load_fields(d, _FINDING_FIELDS))


# -- taint transfer -----------------------------------------------------------


def _addr_reg(ins: Instruction) -> Optional[str]:
    """The register a memory op's address is computed from, if any."""
    if ins.is_load:
        return ins.srcs[0] if ins.srcs else None
    if ins.is_store:
        return ins.srcs[1] if len(ins.srcs) > 1 else None
    return None


def _step(ins: Instruction, taint: dict[str, int],
          w2: Optional[dict[str, dict]] = None) -> None:
    """Apply one instruction's taint transfer to *taint* in place.

    *w2*, when given, tracks window provenance for the gadget walk: which
    registers hold a value loaded through a tainted address *within the
    current speculative window*, mapped to the access that produced it.
    """
    defs = ins.defs()
    if not defs:
        return
    if ins.is_load:
        base = _addr_reg(ins)
        secret = base is not None and base in taint
        for d in defs:
            if secret:
                taint[d] = TAINT_SECRET
            else:
                # A load through a clean address yields clean data (we
                # model taint entering only via the configured registers).
                taint.pop(d, None)
                if w2 is not None:
                    w2.pop(d, None)
        return
    lvl = 0
    for r in ins.uses():
        lvl = max(lvl, taint.get(r, 0))
    partial = ins.is_cmov or ins.is_guarded
    for d in defs:
        if lvl:
            taint[d] = max(lvl, taint.get(d, 0)) if partial else lvl
        elif not partial:
            taint.pop(d, None)
    if w2 is not None:
        prov = None
        for r in ins.uses():
            if r in w2:
                prov = w2[r]
                break
        for d in defs:
            if prov is not None:
                w2[d] = prov
            elif not partial:
                w2.pop(d, None)


def _entry_taint(config: SpectreConfig) -> dict[str, int]:
    return {r: TAINT_UNTRUSTED for r in config.untrusted}


def taint_fixpoint(cfg: CFG, config: SpectreConfig) -> dict[int, dict[str, int]]:
    """Forward dataflow: per-block IN taint maps (register → level).

    Merge at joins is per-register max; the configured untrusted registers
    are tainted at the entry block.  Terminates because taint levels only
    grow and the domain is finite.
    """
    ins_state: dict[int, dict[str, int]] = {
        bb.bid: {} for bb in cfg.blocks}
    ins_state[cfg.entry.bid] = _entry_taint(config)
    work = [bb.bid for bb in cfg.blocks]
    while work:
        bid = work.pop(0)
        out = dict(ins_state[bid])
        for ins in cfg.block(bid).instructions:
            _step(ins, out)
        for s in cfg.succs(bid):
            merged = ins_state[s]
            changed = False
            for r, lvl in out.items():
                if merged.get(r, 0) < lvl:
                    merged[r] = lvl
                    changed = True
            if changed and s not in work:
                work.append(s)
    return ins_state


def _taint_at_terminator(cfg: CFG, bid: int,
                         ins_state: dict[int, dict[str, int]]) -> dict[str, int]:
    """Taint state immediately before *bid*'s terminator executes."""
    taint = dict(ins_state[bid])
    block = cfg.block(bid)
    for ins in block.body:
        _step(ins, taint)
    return taint


# -- gadget walk --------------------------------------------------------------


def _walk_window(cfg: CFG, start_bid: int, budget: int,
                 taint: dict[str, int], name: str,
                 branch: Instruction, branch_bid: int,
                 cond: tuple[str, ...], sew: int,
                 findings: dict[tuple[int, int], SpectreFinding]) -> None:
    """DFS the speculative window from *start_bid*, collecting findings.

    Each path carries its own taint copy plus the window-provenance map;
    a block is revisited only with a strictly larger remaining budget
    (deterministic, and bounds the walk on loops).
    """
    best_budget: dict[int, int] = {}
    stack = [(start_bid, budget, dict(taint), {}, (branch_bid,))]
    while stack:
        bid, left, t, w2, path = stack.pop()
        if left <= 0 or best_budget.get(bid, -1) >= left:
            continue
        best_budget[bid] = left
        path = path + (bid,)
        block = cfg.block(bid)
        for ins in block.instructions:
            if left <= 0:
                break
            left -= 1
            addr = _addr_reg(ins)
            if addr is not None and addr in w2:
                acc = w2[addr]
                key = (branch.uid, ins.uid)
                if key not in findings:
                    findings[key] = SpectreFinding(
                        program=name,
                        branch_uid=branch.uid, branch_op=branch.op,
                        branch_block=branch_bid, tainted_condition=cond,
                        access_uid=acc["uid"], access_op=acc["op"],
                        access_block=acc["bid"],
                        transmit_uid=ins.uid, transmit_op=ins.op,
                        transmit_block=bid,
                        transmit_is_store=ins.is_store,
                        distance=budget - left, sew=sew, path=path)
            elif ins.is_load and addr is not None and addr in t:
                # First dependent access: its result is a window secret.
                _step(ins, t, w2)
                for d in ins.defs():
                    w2[d] = {"uid": ins.uid, "op": ins.op, "bid": bid}
                continue
            _step(ins, t, w2)
        if left > 0:
            succs = cfg.succs(bid)
            for s in reversed(succs):
                stack.append((s, left, dict(t), dict(w2), path))


def analyze_cfg(cfg: CFG, config: SpectreConfig = SpectreConfig(),
                name: str = "") -> list[SpectreFinding]:
    """Run the full analysis over *cfg*; returns findings sorted by site."""
    ins_state = taint_fixpoint(cfg, config)
    findings: dict[tuple[int, int], SpectreFinding] = {}
    for bb in cfg.blocks:
        term = bb.terminator
        if term is None or not term.is_branch:
            continue
        taint = _taint_at_terminator(cfg, bb.bid, ins_state)
        cond = tuple(sorted(r for r in term.uses() if r in taint))
        if not cond:
            continue
        # Both successor paths run speculatively: the predictor may choose
        # either arm regardless of the architectural outcome.
        for s in cfg.succs(bb.bid):
            _walk_window(cfg, s, config.sew, taint, name,
                         term, bb.bid, cond, config.sew, findings)
    return sorted(findings.values(),
                  key=lambda f: (f.branch_block, f.branch_uid,
                                 f.transmit_uid))


def analyze_program(prog: Program,
                    config: SpectreConfig = SpectreConfig()
                    ) -> list[SpectreFinding]:
    """Build the CFG of *prog* and run :func:`analyze_cfg` on it."""
    return analyze_cfg(build_cfg(prog), config, name=prog.name)


# -- hoist guard for the safe-speculative scheme ------------------------------


class SpectreHoistGuard:
    """Per-hoist safety oracle consumed by the speculation pass.

    Calling the guard with ``(cfg, pred_bid, ins)`` answers what the
    safe-speculative scheme should do with hoisting *ins* above the
    terminator of block *pred_bid*: ``"allow"``, ``"fence"`` (hoist but
    plant a serializing barrier in front), or ``"suppress"`` (refuse).

    A hoist is flagged when the predecessor ends in a conditional branch
    whose condition is tainted and the candidate is a load whose address
    is tainted — exactly the *access* step of the gadget; holding it back
    (or fencing it) breaks every downstream transmitter.

    The taint fixpoint is memoized on the CFG's shape (block count and
    total instruction count) because the scheduler mutates the graph
    between queries; a stale-by-one-hoist snapshot only ever errs toward
    re-running the (cheap) fixpoint, never toward missing taint sources —
    hoisting moves instructions, it cannot create untrusted inputs.
    """

    def __init__(self, config: SpectreConfig = SpectreConfig()):
        self.config = config
        #: hoists the guard answered with fence / suppress (for reports)
        self.flagged = 0
        self._memo_shape: Optional[tuple[int, int]] = None
        self._memo_state: Optional[dict[int, dict[str, int]]] = None

    def _states(self, cfg: CFG) -> dict[int, dict[str, int]]:
        shape = (len(cfg.blocks),
                 sum(len(bb.instructions) for bb in cfg.blocks))
        if shape != self._memo_shape:
            self._memo_state = taint_fixpoint(cfg, self.config)
            self._memo_shape = shape
        assert self._memo_state is not None
        return self._memo_state

    def __call__(self, cfg: CFG, pred_bid: int, ins: Instruction) -> str:
        """Classify one candidate hoist (see class docstring)."""
        term = cfg.block(pred_bid).terminator
        if term is None or not term.is_branch:
            return "allow"
        states = self._states(cfg)
        if pred_bid not in states:
            # Block created after the snapshot; refresh once.
            self._memo_shape = None
            states = self._states(cfg)
            if pred_bid not in states:  # pragma: no cover - defensive
                return "allow"
        taint = _taint_at_terminator(cfg, pred_bid, states)
        if not any(r in taint for r in term.uses()):
            return "allow"
        addr = _addr_reg(ins)
        if not (ins.is_load and addr is not None and addr in taint):
            return "allow"
        self.flagged += 1
        return "fence" if self.config.mode == "fence" else "suppress"


def config_from_heuristics(heur) -> SpectreConfig:
    """Build a :class:`SpectreConfig` from the pipeline's
    :class:`~repro.core.heuristics.FeedbackHeuristics` spectre knobs.

    The hoist guard reads only ``untrusted`` and ``mode``; ``sew`` bounds
    the analysis's window walk, which the guard does not take, so it
    keeps its default."""
    return SpectreConfig(untrusted=tuple(heur.spectre_untrusted),
                         mode="fence" if heur.spectre_fence else "suppress")
