"""Pass sandbox: crash containment + rollback for pipeline stages.

Each stage of the proposed pipeline (branch splitting, if-conversion,
branch-likely rewriting, region scheduling, cleanup) runs inside a
:class:`PassSandbox`.  Before a stage runs, the sandbox snapshots the CFG;
if the stage raises, or its output fails the :mod:`repro.robust.verifier`,
the CFG is restored bit-for-bit (same block ids, so downstream decisions
keyed by block id stay valid), a structured :class:`PassFailure` is
recorded, and compilation continues with the remaining stages.  The program
degrades — proposed → partially-transformed → baseline schedule — instead
of the whole compile (or the whole evaluation suite) aborting.

This is the discipline production compilers apply around unproven passes:
contain, diagnose, fall back.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Any, Callable

from ..cfg.basic_block import BasicBlock
from ..cfg.graph import CFG, Edge
from ..obs.trace import span as obs_span
from .verifier import verify_cfg


@dataclass
class PassFailure:
    """One contained pass failure (or recorded skip) with its diagnosis."""

    stage: str                 # e.g. "split", "ifconvert", "speculate"
    kind: str                  # "exception", "verify" or "skip"
    reason: str                # one line: what went wrong
    detail: str = ""           # traceback tail / verifier violations
    rolled_back: bool = True   # False for "skip" records (nothing happened)

    def __str__(self) -> str:
        tag = "skipped" if self.kind == "skip" else "contained"
        return f"[{self.stage}] {tag} ({self.kind}): {self.reason}"

    def to_dict(self) -> dict:
        """JSON-serializable form (engine artifact-cache payload)."""
        return {"stage": self.stage, "kind": self.kind,
                "reason": self.reason, "detail": self.detail,
                "rolled_back": self.rolled_back}

    @classmethod
    def from_dict(cls, d: dict) -> "PassFailure":
        """Inverse of :meth:`to_dict`."""
        return cls(stage=d["stage"], kind=d["kind"], reason=d["reason"],
                   detail=d["detail"], rolled_back=d["rolled_back"])


def snapshot_cfg(cfg: CFG) -> dict[str, Any]:
    """Capture everything a pass may mutate, preserving block ids."""
    return {
        "blocks": [
            (bb.bid, bb.label, [ins.clone() for ins in bb.instructions],
             bb.freq)
            for bb in cfg.blocks
        ],
        "succ": {bid: [(e.src, e.dst, e.kind, e.freq) for e in edges]
                 for bid, edges in cfg.succ_edges.items()},
        "data_symbols": dict(cfg.data_symbols),
        "data_image": dict(cfg.data_image),
        "code_refs": dict(cfg.code_refs),
        "name": cfg.name,
    }


def restore_cfg(cfg: CFG, snap: dict[str, Any]) -> None:
    """Restore *cfg* in place from a :func:`snapshot_cfg` capture.

    In-place so that references held by callers (profiles, loop forests
    rebuilt afterwards, decision plans keyed by block id) stay meaningful.
    """
    cfg.name = snap["name"]
    cfg.blocks = []
    cfg._by_id = {}
    cfg.succ_edges = {}
    cfg.pred_edges = {}
    for bid, label, instrs, freq in snap["blocks"]:
        bb = BasicBlock(bid=bid, label=label,
                        instructions=[ins.clone() for ins in instrs],
                        freq=freq)
        cfg.blocks.append(bb)
        cfg._by_id[bid] = bb
        cfg.succ_edges[bid] = []
        cfg.pred_edges[bid] = []
    for bid, edges in snap["succ"].items():
        for src, dst, kind, freq in edges:
            e = Edge(src, dst, kind, freq)
            cfg.succ_edges[src].append(e)
            cfg.pred_edges[dst].append(e)
    cfg.data_symbols = dict(snap["data_symbols"])
    cfg.data_image = dict(snap["data_image"])
    cfg.code_refs = dict(snap["code_refs"])


#: Failures one :class:`PassSandbox` lists; later ones are contained too.
MAX_FAILURES = 64


class PassSandbox:
    """Run pipeline stages over a CFG with rollback on crash or bad IR.

    Usage::

        box = PassSandbox(cfg)
        ok = box.run("ifconvert", lambda: if_convert_diamond(cfg, bid))
        if not ok:
            ...  # cfg already restored; box.failures has the diagnosis

    ``run`` returns the stage callable's return value on success and
    ``None`` on contained failure; :attr:`last_ok` distinguishes a stage
    that legitimately returned ``None`` from one that was rolled back.
    """

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.failures: list[PassFailure] = []
        self.last_ok: bool = True

    # -- recording -------------------------------------------------------------

    def _record(self, failure: PassFailure) -> None:
        if len(self.failures) < MAX_FAILURES:
            self.failures.append(failure)

    # -- execution -------------------------------------------------------------

    def run(self, stage: str, fn: Callable[[], Any],
            skip_exceptions: tuple = ()) -> Any:
        """Execute *fn* with snapshot/verify/rollback containment.

        Exception types listed in *skip_exceptions* are "pass declined"
        signals (e.g. ``SplitNotApplicable``), recorded as kind ``"skip"``
        with the pass's own reason — still rolled back, but not counted as
        containment events.

        Each execution emits a ``pass.<name>`` tracing span (the stage's
        ``@bbN`` site suffix travels as the ``stage`` attribute, so all
        sites of one pass aggregate under one span name) whose
        ``outcome`` attribute is ``ok``/``skip``/``exception``/``verify``.
        """
        with obs_span("pass." + stage.split("@", 1)[0], stage=stage) as sp:
            snap = snapshot_cfg(self.cfg)
            try:
                result = fn()
            except skip_exceptions as exc:
                restore_cfg(self.cfg, snap)
                self.last_ok = False
                self._record(PassFailure(
                    stage=stage, kind="skip",
                    reason=f"{exc}" or type(exc).__name__))
                sp.set("outcome", "skip")
                return None
            except Exception as exc:  # noqa: BLE001 - containment is the point
                restore_cfg(self.cfg, snap)
                self.last_ok = False
                self._record(PassFailure(
                    stage=stage, kind="exception",
                    reason=f"{type(exc).__name__}: {exc}",
                    detail=traceback.format_exc(limit=6)))
                sp.set("outcome", "exception")
                return None
            violations = verify_cfg(self.cfg)
            if violations:
                restore_cfg(self.cfg, snap)
                self.last_ok = False
                self._record(PassFailure(
                    stage=stage, kind="verify",
                    reason=f"{len(violations)} IR invariant "
                           f"violation(s); first: {violations[0]}",
                    detail="\n".join(str(v) for v in violations[:20])))
                sp.set("outcome", "verify")
                return None
            self.last_ok = True
            sp.set("outcome", "ok")
            return result

    # -- reporting -------------------------------------------------------------

    @property
    def contained(self) -> list[PassFailure]:
        """Failures that actually rolled a pass back (skips excluded)."""
        return [f for f in self.failures if f.kind != "skip"]

    def summary(self) -> str:
        """One line per recorded failure/skip (empty string when clean)."""
        return "\n".join(str(f) for f in self.failures)
