"""End-to-end compilation pipelines.

* :func:`compile_baseline` — what the paper's column 1 runs: the program as
  the native compiler laid it out, locally list-scheduled.
* :func:`compile_proposed` — the paper's proposed approach (column 2):
  profile -> Figure 6 decisions -> split branches / if-conversion /
  branch-likely conversion -> profile-prioritized region scheduling
  (speculation) -> cleanup.  Runs *on top of* the same 2-bit hardware
  prediction.

Every pipeline returns a :class:`CompileResult` carrying the output program
plus the decision trail, so experiments can report what was applied where.

Crash containment
-----------------
Every stage of the proposed pipeline runs inside a
:class:`repro.robust.sandbox.PassSandbox`: a stage that raises, or whose
output fails the IR verifier, is rolled back and recorded as a
:class:`~repro.robust.sandbox.PassFailure` in ``CompileResult.failures``
while the remaining stages continue.  If the final program cannot be
emitted or verified, compilation degrades down the ladder

    proposed  ->  baseline schedule  ->  native (untransformed)

recording which rung it landed on in ``CompileResult.fallback`` — a broken
pass costs performance, never a crashed evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cfg.graph import build_cfg
from ..cfg.loops import LoopForest
from ..isa.program import Program
from ..obs.trace import span as obs_span
from ..profilefb.profiledb import ProfileDB
from ..robust.sandbox import PassFailure, PassSandbox
from ..robust.verifier import VerificationError, verify_program
from ..sched.machine_model import DEFAULT_MODEL, MachineModel
from ..sched.list_scheduler import reorder_block
from ..sched.region import RegionReport, schedule_region
from ..transform.branch_likely import LikelyReport, apply_branch_likely
from ..transform.branch_split import SplitNotApplicable, split_from_profile
from ..transform.dce import eliminate_dead_code
from ..transform.ifconvert import if_convert_diamond
from ..transform.meld import meld_diamond
from .algorithm import DecisionPlan, decide
from .heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from .serde import check as serde_check, stamp as serde_stamp


@dataclass
class CompileResult:
    """A compiled program plus the pipeline's decision trail.

    A result from :meth:`from_dict` keeps the compiled program's payload
    and builds the :class:`Program` when ``program`` is first read, so a
    cache hit that only reports statistics parses nothing.
    """

    program: Program
    plan: Optional[DecisionPlan] = None
    splits_applied: int = 0
    ifconverts_applied: int = 0
    melds_applied: int = 0
    likely_report: Optional[LikelyReport] = None
    region_report: Optional[RegionReport] = None
    profile: Optional[ProfileDB] = None
    #: contained pass failures and recorded skips, in pipeline order
    failures: list[PassFailure] = field(default_factory=list)
    #: degradation rung the compile landed on: None (full proposed
    #: pipeline output), "baseline" (local schedule only) or "native"
    #: (input program returned untransformed)
    fallback: Optional[str] = None

    #: ``Program.to_dict`` payload of a program :meth:`from_dict` has not
    #: built yet (see ``program`` below the class)
    _program_payload: Optional[dict] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def degraded(self) -> bool:
        """True when any pass was contained or a fallback was taken."""
        return self.fallback is not None or any(
            f.kind != "skip" for f in self.failures)

    def summary(self) -> str:
        lines = [f"compiled {self.program.name}: "
                 f"{len(self.program)} instructions"]
        if self.plan is not None:
            lines.append(self.plan.summary())
        lines.append(f"  splits applied:      {self.splits_applied}")
        lines.append(f"  if-conversions:      {self.ifconverts_applied}")
        if self.melds_applied:
            lines.append(f"  branches melded:     {self.melds_applied}")
        if self.likely_report is not None:
            lines.append(f"  branch-likelies:     {self.likely_report.converted}")
        if self.region_report is not None:
            lines.append(f"  ops speculated:      {self.region_report.speculated}")
            lines.append(f"  ops duplicated down: {self.region_report.duplicated}")
            if self.region_report.fenced or self.region_report.suppressed:
                lines.append(f"  hoists fenced:       {self.region_report.fenced}"
                             f" (suppressed: {self.region_report.suppressed})")
        if self.fallback is not None:
            lines.append(f"  DEGRADED to:         {self.fallback}")
        for f in self.failures:
            lines.append(f"  {f}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable form, reconstructible by :meth:`from_dict`.

        Everything round-trips except ``profile``: a :class:`ProfileDB`
        holds per-branch outcome vectors keyed by process-local instruction
        uids, so it is deliberately dropped — ``from_dict`` restores
        ``profile=None``.  Consumers needing feedback data re-profile.
        The program entry is ``program.to_dict()``, except that a result
        from :meth:`from_dict` whose program has not been read returns a
        copy of the payload it kept, and so prints nothing.
        """
        payload = self._program_payload
        return serde_stamp({
            "program": (self.program.to_dict() if payload is None
                        else _copy_program_payload(payload)),
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "splits_applied": self.splits_applied,
            "ifconverts_applied": self.ifconverts_applied,
            "melds_applied": self.melds_applied,
            "likely_report": (self.likely_report.to_dict()
                              if self.likely_report is not None else None),
            "region_report": (self.region_report.to_dict()
                              if self.region_report is not None else None),
            "failures": [f.to_dict() for f in self.failures],
            "fallback": self.fallback,
        })

    @classmethod
    def from_dict(cls, d: dict) -> "CompileResult":
        """Inverse of :meth:`to_dict` (``profile`` is restored as None;
        the schema version is checked).

        The program is not parsed here: the result keeps a copy of its
        payload and builds ``Program.from_dict(payload)`` on the first
        read of ``program``.
        """
        serde_check(d, "CompileResult")
        result = cls(
            program=None,
            plan=(DecisionPlan.from_dict(d["plan"])
                  if d["plan"] is not None else None),
            splits_applied=d["splits_applied"],
            ifconverts_applied=d["ifconverts_applied"],
            melds_applied=d.get("melds_applied", 0),
            likely_report=(LikelyReport.from_dict(d["likely_report"])
                           if d["likely_report"] is not None else None),
            region_report=(RegionReport.from_dict(d["region_report"])
                           if d["region_report"] is not None else None),
            failures=[PassFailure.from_dict(f) for f in d["failures"]],
            fallback=d["fallback"],
        )
        result._program_payload = _copy_program_payload(d["program"])
        return result


def _copy_program_payload(payload: dict) -> dict:
    """An unaliased copy of a ``Program.to_dict`` payload (its values are
    strings and flat tables)."""
    return {k: dict(v) if isinstance(v, dict) else v
            for k, v in payload.items()}


def _read_program(result: CompileResult) -> Program:
    payload = result._program_payload
    if payload is not None:
        result._program = Program.from_dict(payload)
        result._program_payload = None
    return result._program


def _write_program(result: CompileResult, program: Program) -> None:
    result._program = program
    result._program_payload = None


# ``program`` stays a dataclass field (constructor argument, ``fields``,
# ``replace``) but is read and written through this property: a result
# from ``from_dict`` builds its program on the first read, and from then
# on ``to_dict`` prints the program, so mutations through it show.
CompileResult.program = property(_read_program, _write_program)


def compile_baseline(prog: Program,
                     model: MachineModel = DEFAULT_MODEL) -> CompileResult:
    """Locally schedule each block; no global transformation."""
    with obs_span("compile.baseline", program=prog.name):
        cfg = build_cfg(prog)
        for bb in cfg.blocks:
            if bb.instructions:
                reorder_block(bb, model)
        return CompileResult(program=cfg.to_program(prog.name + ".base"))


def _fallback_result(prog: Program, model: MachineModel,
                     result: "CompileResult") -> "CompileResult":
    """Degrade *result* down the ladder: baseline schedule, else native."""
    try:
        base = compile_baseline(prog, model)
        base.program.name = prog.name + ".proposed"
        result.program = base.program
        result.fallback = "baseline"
    except Exception as exc:  # noqa: BLE001 - last rung must not raise
        result.failures.append(PassFailure(
            stage="fallback-baseline", kind="exception",
            reason=f"{type(exc).__name__}: {exc}"))
        result.program = prog
        result.fallback = "native"
    return result


def compile_proposed(prog: Program,
                     heur: FeedbackHeuristics = DEFAULT_HEURISTICS,
                     model: MachineModel = DEFAULT_MODEL,
                     profile: Optional[ProfileDB] = None,
                     max_steps: int = 20_000_000) -> CompileResult:
    """The paper's proposed scheme, end to end, with crash containment.

    Pass a pre-built *profile* to skip the profiling run (e.g. to reuse one
    run across ablation variants).  The IR verifier runs after every pass
    (rolling back passes that break an invariant) and on the emitted
    program (degrading to the baseline on a violation).
    """
    with obs_span("compile.proposed", program=prog.name) as sp:
        result = _compile_proposed_inner(prog, heur, model, profile,
                                         max_steps)
        sp.set("fallback", result.fallback)
        sp.set("failures", len(result.failures))
    return result


def _compile_proposed_inner(prog: Program, heur: FeedbackHeuristics,
                            model: MachineModel,
                            profile: Optional[ProfileDB],
                            max_steps: int) -> CompileResult:
    result = CompileResult(program=prog)

    # 0. Profiling run.  Without feedback there is nothing to propose:
    #    degrade straight to the baseline schedule.
    if profile is None:
        try:
            with obs_span("pass.profile", program=prog.name):
                profile = ProfileDB.from_run(prog, max_steps=max_steps,
                                             config=heur.classify)
        except Exception as exc:  # noqa: BLE001
            result.failures.append(PassFailure(
                stage="profile", kind="exception",
                reason=f"{type(exc).__name__}: {exc}"))
            return _fallback_result(prog, model, result)
    result.profile = profile

    try:
        cfg = build_cfg(prog)
    except Exception as exc:  # noqa: BLE001 - input program is broken
        result.failures.append(PassFailure(
            stage="build_cfg", kind="exception",
            reason=f"{type(exc).__name__}: {exc}"))
        return _fallback_result(prog, model, result)

    box = PassSandbox(cfg)
    box.run("annotate", lambda: profile.annotate(cfg))
    forest = LoopForest(cfg)

    plan = box.run("decide", lambda: decide(cfg, forest, profile, heur, model))
    if plan is None:
        plan = DecisionPlan()
    result.plan = plan

    # 1. Branch splitting (changes loop structure: apply first, re-derive
    #    the forest afterwards).  A split that declines records *why* in
    #    the decision trail instead of dropping the reason.
    for d in plan.by_action("split"):
        box.run(f"split@bb{d.block}",
                lambda d=d: split_from_profile(cfg, forest, d.block, profile,
                                               style=heur.split_style),
                skip_exceptions=(SplitNotApplicable,))
        if box.last_ok:
            result.splits_applied += 1
    if result.splits_applied:
        forest = LoopForest(cfg)

    # 2. If-conversion (guarded execution) — or, under the melded scheme,
    #    branch melding: the same Figure 6 "ifconvert" decisions are
    #    consumed, but the diamond is flattened into an unconditional
    #    select sequence (repro.transform.meld) instead of guarded ops.
    for d in plan.by_action("ifconvert"):
        if d.block not in cfg._by_id:
            continue
        if heur.enable_meld:
            melded = box.run(
                f"meld@bb{d.block}",
                lambda d=d: meld_diamond(cfg, d.block,
                                         max_arm_ops=heur.meld_max_arm_ops))
            if melded is not None:
                result.melds_applied += 1
            continue
        converted = box.run(f"ifconvert@bb{d.block}",
                            lambda d=d: if_convert_diamond(cfg, d.block))
        if converted is not None:
            result.ifconverts_applied += 1

    # 3. Branch-likely conversion — the global pass also covers clones via
    #    their profile linkage; the Figure 6 "likely" decisions are a
    #    subset of what it converts.
    if heur.enable_likely:
        result.likely_report = box.run(
            "likely", lambda: apply_branch_likely(cfg, profile))

    # 4. Profile-prioritized speculation + local scheduling.  Under the
    #    safe-speculative scheme a taint-analysis guard vets every hoist
    #    (imported lazily: robust.spectre is an optional consumer of core).
    box.run("annotate", lambda: profile.annotate(cfg))
    if heur.enable_speculation:
        hoist_guard = None
        if heur.spectre_safe:
            from ..robust.spectre import (SpectreHoistGuard,
                                          config_from_heuristics)
            hoist_guard = SpectreHoistGuard(config_from_heuristics(heur))
        result.region_report = box.run(
            "speculate",
            lambda: schedule_region(
                cfg, model, bias_threshold=heur.speculation_bias,
                max_moves_per_block=heur.max_moves_per_block,
                profile=profile, mispredict_window=heur.mispredict_penalty,
                hoist_guard=hoist_guard))
    else:
        def _cleanup() -> None:
            eliminate_dead_code(cfg)
            for bb in cfg.blocks:
                if bb.instructions:
                    reorder_block(bb, model)
        box.run("cleanup", _cleanup)

    result.failures = box.failures

    # 5. Emission + final whole-program verification; degrade on failure.
    try:
        out = cfg.to_program(prog.name + ".proposed")
        violations = verify_program(out)
        if violations:
            raise VerificationError(violations, name=out.name)
    except Exception as exc:  # noqa: BLE001
        result.failures.append(PassFailure(
            stage="emit", kind="exception" if not isinstance(
                exc, VerificationError) else "verify",
            reason=f"{type(exc).__name__}: {exc}"))
        return _fallback_result(prog, model, result)
    result.program = out
    return result


def compile_variant(prog: Program, *, likely: bool = True, split: bool = True,
                    ifconvert: bool = True, speculation: bool = True,
                    spectre: bool = False, meld: bool = False,
                    heur: FeedbackHeuristics = DEFAULT_HEURISTICS,
                    **kw) -> CompileResult:
    """Ablation helper: the proposed pipeline with features toggled.

    ``spectre=True`` additionally arms the speculative-safety guard
    (the safe-speculative scheme; see :mod:`repro.robust.spectre`).
    ``meld=True`` replaces if-conversion with branch melding (the melded
    scheme; see :mod:`repro.transform.meld`).
    """
    from dataclasses import replace

    heur = replace(heur, enable_likely=likely, enable_split=split,
                   enable_ifconvert=ifconvert, enable_speculation=speculation,
                   spectre_safe=spectre, enable_meld=meld)
    return compile_proposed(prog, heur=heur, **kw)
