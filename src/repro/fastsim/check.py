"""Fast-vs-reference conformance checks built on :mod:`repro.robust.diffcheck`.

The robustness layer already knows how to compare two executions of "the
same program" architecturally (final memory image, halt behavior,
registers) and report divergences as a structured
:class:`~repro.robust.diffcheck.DiffReport`.  This module points that
machinery at the production simulator: the same program, the same
inputs, once on the reference interpreter (the oracle) and once on the
generated-step executor every run uses.

Two granularities:

* :func:`crosscheck` — functional execution only: final architectural
  state, the full :class:`~repro.sim.functional.ExecStats` payload
  (every counter and branch-outcome vector), and per-instruction
  execution counts must match field for field.
* :func:`crosscheck_cell` — one full evaluation cell (functional +
  timing under a machine config): the ``SimStats`` and ``ExecStats``
  serde dicts must be equal — the exact payload-equality contract the
  engine's cache and the conformance suite assert.

Both run the fast path exactly as :func:`repro.fastsim.backend.simulate`
does, so a fastsim bug shows up here as a divergence or a failure
mismatch.
"""

from __future__ import annotations

from typing import Optional

from ..isa.program import Program
from ..robust.diffcheck import DiffReport, _compare_outcomes
from ..sim.config import MachineConfig
from ..sim.functional import FunctionalSim
from ..sim.pipeline import TimingSim
from .decode import decode_program
from .functional import FastFunctionalSim
from .timing import FastTimingSim


def _run_one(sim) -> Optional[str]:
    """Run *sim* to halt; returns the failure string, or None when clean."""
    try:
        sim.run()
        return None
    except Exception as exc:  # noqa: BLE001 - classified, not swallowed
        text = str(exc).splitlines()[0] if str(exc) else ""
        return f"{type(exc).__name__}: {text}"


def _dict_mismatches(prefix: str, a: dict, b: dict) -> list[str]:
    out = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            out.append(f"{prefix}.{key}: {va!r} != {vb!r}")
    return out


def crosscheck(prog: Program, *, max_steps: int = 20_000_000,
               record_outcomes: bool = True) -> DiffReport:
    """Reference vs fast functional execution of *prog*.

    Equivalent means: identical failure behavior (both clean, or both
    raising the same exception at the same step count), identical
    ``ExecStats`` payloads, identical per-instruction execution counts,
    identical final registers (int, float, cc) and memory image.
    """
    ref = FunctionalSim(prog, max_steps=max_steps,
                        record_outcomes=record_outcomes)
    fast = FastFunctionalSim(prog, max_steps=max_steps,
                             record_outcomes=record_outcomes)
    ref_fail = _run_one(ref)
    fast_fail = _run_one(fast)
    report = DiffReport(True, original_steps=ref.stats.steps,
                        transformed_steps=fast.stats.steps)
    if ref_fail != fast_fail:
        report.equivalent = False
        report.reason = (f"backend failure mismatch: reference "
                         f"{ref_fail!r} vs fast {fast_fail!r}")
        return report

    mism = _dict_mismatches("exec_stats", ref.stats.to_dict(),
                            fast.stats.to_dict())
    if ref.index_counts != fast.index_counts:
        firsts = [i for i, (a, b) in enumerate(
            zip(ref.index_counts, fast.index_counts)) if a != b]
        mism.append(f"index_counts: first diff at pc={firsts[0]}"
                    if firsts else "index_counts: length differs")
    for name, a, b in (("regs", ref.regs, fast.regs),
                       ("fregs", ref.fregs, fast.fregs),
                       ("ccregs", ref.ccregs, fast.ccregs)):
        mism.extend(_dict_mismatches(name, a, b))
    if mism:
        report.equivalent = False
        report.mismatches.extend(mism)
    # Memory + halt flag go through the diffcheck comparator itself
    # (FastFunctionalSim exposes the reference state surface).
    _compare_outcomes(ref, fast, (), report)
    if not report.equivalent and not report.reason:
        report.reason = (f"{len(report.mismatches)} backend "
                         f"mismatch(es); first: {report.mismatches[0]}")
    return report


def crosscheck_cell(prog: Program, config: MachineConfig, *,
                    max_steps: int = 20_000_000) -> DiffReport:
    """Reference vs fast full-cell simulation of *prog* under *config*.

    Compares the ``(SimStats, ExecStats)`` pair the engine caches — the
    payload-equality contract that lets an observed run stand in for a
    fast one.
    """
    def _ref():
        fsim = FunctionalSim(prog, max_steps=max_steps,
                             record_outcomes=False)
        stats = TimingSim(config).run(fsim.trace())
        return stats, fsim.stats

    def _fast():
        dec = decode_program(prog)
        fsim = FastFunctionalSim(prog, max_steps=max_steps,
                                 record_outcomes=False, decoded=dec)
        stats = FastTimingSim(config, decoded=dec).run(fsim.batches())
        return stats, fsim.stats

    ref_pair = fast_pair = None
    ref_fail = fast_fail = None
    try:
        ref_pair = _ref()
    except Exception as exc:  # noqa: BLE001
        ref_fail = f"{type(exc).__name__}: {exc}"
    try:
        fast_pair = _fast()
    except Exception as exc:  # noqa: BLE001
        fast_fail = f"{type(exc).__name__}: {exc}"

    report = DiffReport(True)
    if (ref_fail is None) != (fast_fail is None) or (
            ref_fail is not None and ref_fail != fast_fail):
        report.equivalent = False
        report.reason = (f"backend failure mismatch: reference "
                         f"{ref_fail!r} vs fast {fast_fail!r}")
        return report
    if ref_pair is None:
        return report  # both failed identically: backend-equivalent

    mism = _dict_mismatches("stats", ref_pair[0].to_dict(),
                            fast_pair[0].to_dict())
    mism.extend(_dict_mismatches("exec_stats", ref_pair[1].to_dict(),
                                 fast_pair[1].to_dict()))
    if mism:
        report.equivalent = False
        report.mismatches.extend(mism)
        report.reason = (f"{len(mism)} cell payload mismatch(es); "
                         f"first: {mism[0]}")
    report.original_steps = ref_pair[1].steps
    report.transformed_steps = fast_pair[1].steps
    return report
