"""Differential checker: transformed programs must behave like the original.

Runs the :class:`~repro.sim.functional.FunctionalSim` on the original and
the transformed program and compares the architectural outcome:

* **memory** — the complete final memory image (every page either program
  touched);
* **halt / trap behavior** — both programs must halt the same way; a
  transformed program that diverges (PC out of range), faults (alignment
  trap), or blows the step-budget watchdog is reported with the failing PC
  and step count instead of hanging the caller;
* **registers** — off by default because software renaming legitimately
  retargets destination registers (paper Section 1: speculated destinations
  are renamed "from the pool of free registers"); pass ``registers=`` to
  compare an explicit live-out subset.

The watchdog budget for the transformed run is proportional to the
original's dynamic length (``step_ratio``), so a transformed program stuck
in an infinite loop produces a bounded, classified failure.

A check is two steps: :func:`run_reference` runs the original once, and
:meth:`Reference.check` compares one transformed program against that
run.  A caller checking many programs against one original (every scheme
of a fuzz program, both pipelines of ``repro verify``) runs it once;
:func:`check_equivalence` is the one-shot form of the same two steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core import serde
from ..isa.program import Program
from ..sim.functional import FunctionalSim, SimulationError
from ..sim.memory import Memory

#: Minimum transformed-run step budget, regardless of original length.
MIN_BUDGET = 10_000


#: Divergence-kind labels :meth:`DiffReport.kind` can return, in the order
#: they are tested.  Triage buckets (repro.qa) key on these.
DIVERGENCE_KINDS = (
    "equivalent", "original-failed", "load-failure", "timeout", "crash",
    "halt-mismatch", "mem-mismatch", "reg-mismatch",
)


@dataclass
class DiffReport:
    """Outcome of one differential check."""

    equivalent: bool
    reason: str = ""                   # empty when equivalent
    original_steps: int = 0
    transformed_steps: int = 0
    mismatches: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.equivalent

    def __str__(self) -> str:
        if self.equivalent:
            return (f"equivalent ({self.original_steps} vs "
                    f"{self.transformed_steps} steps)")
        lines = [f"NOT equivalent: {self.reason}"]
        lines += [f"  {m}" for m in self.mismatches[:8]]
        return "\n".join(lines)

    @property
    def kind(self) -> str:
        """Coarse divergence class (one of :data:`DIVERGENCE_KINDS`).

        Classifies *how* the check failed — reference run unusable,
        transformed program failed to load / ran away / trapped, or a
        clean run ended in the wrong architectural state — so failures
        with the same root cause bucket together regardless of the exact
        addresses and values in the message.
        """
        if self.equivalent:
            return "equivalent"
        if self.reason.startswith("original"):
            return "original-failed"
        if "failed to load" in self.reason:
            return "load-failure"
        if self.reason.startswith("transformed:"):
            return ("timeout" if "StepBudgetExceeded" in self.reason
                    else "crash")
        first = self.mismatches[0] if self.mismatches else ""
        if first.startswith("halted:"):
            return "halt-mismatch"
        if first.startswith("mem["):
            return "mem-mismatch"
        return "reg-mismatch"

    @property
    def first_diff(self) -> str:
        """Location token of the first mismatch (``mem[0x...]``, a register
        name, or the failing pc for crash/timeout kinds); empty when
        equivalent."""
        if self.equivalent:
            return ""
        if self.mismatches:
            return self.mismatches[0].split(":", 1)[0]
        for token in self.reason.split():
            if token.startswith("pc="):
                return token.rstrip(":,")
        return self.reason[:40]

    def to_dict(self) -> dict:
        """JSON-serializable form (round-trips via :meth:`from_dict`).

        Includes the derived ``kind`` and ``first_diff`` fields so
        downstream triage can bucket without re-parsing message text.
        """
        return serde.stamp({
            "equivalent": self.equivalent,
            "reason": self.reason,
            "original_steps": self.original_steps,
            "transformed_steps": self.transformed_steps,
            "mismatches": list(self.mismatches),
            "kind": self.kind,
            "first_diff": self.first_diff,
        })

    @classmethod
    def from_dict(cls, d: dict) -> "DiffReport":
        """Inverse of :meth:`to_dict` (derived fields are recomputed;
        the schema version is checked)."""
        serde.check(d, "DiffReport")
        return cls(equivalent=d["equivalent"], reason=d["reason"],
                   original_steps=d["original_steps"],
                   transformed_steps=d["transformed_steps"],
                   mismatches=list(d["mismatches"]))


def _nonzero_image(mem: Memory) -> dict[int, bytes]:
    """Final memory as {page_number: content} with all-zero pages dropped
    (untouched memory reads as zero, so zero pages are not observable)."""
    out: dict[int, bytes] = {}
    for pno, page in mem._pages.items():
        if any(page):
            out[pno] = bytes(page)
    return out


def _first_diff(a: bytes, b: bytes, base: int) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"mem[0x{base + i:08X}]: {x:#04x} != {y:#04x}"
    return f"mem page at 0x{base:08X} differs in length"


def _run(prog: Program, max_steps: int) -> tuple[FunctionalSim,
                                                 Optional[str]]:
    """Execute *prog*; return (sim, failure reason or None)."""
    try:
        sim = FunctionalSim(prog, max_steps=max_steps, record_outcomes=False)
    except Exception as exc:  # noqa: BLE001 - load-time corruption
        raise _LoadError(f"{type(exc).__name__}: {exc}") from exc
    try:
        sim.run()
        return sim, None
    except SimulationError as exc:
        return sim, (f"{type(exc).__name__} at pc={exc.pc} after "
                     f"{exc.steps} steps: {exc}")
    except Exception as exc:  # noqa: BLE001 - e.g. AlignmentError trap
        return sim, (f"{type(exc).__name__} at pc={sim.pc} after "
                     f"{sim.stats.steps} steps: {exc}")


class _LoadError(Exception):
    """Program could not even be loaded into the simulator."""


@dataclass(frozen=True)
class Reference:
    """The outcome of one run of an original program.

    Built by :func:`run_reference` and read-only afterwards, so any number
    of transformed programs can be checked against it.  ``failure`` is the
    ``original...`` reason when the original could not be loaded or did
    not halt cleanly (every check against it is then inconclusive);
    ``sim`` is the finished simulator, or None when loading failed.
    """

    program: Program
    max_steps: int
    sim: Optional[FunctionalSim]
    failure: Optional[str] = None

    def check(self, transformed: Program, *, step_ratio: float = 8.0,
              registers: Sequence[str] = ()) -> DiffReport:
        """Run *transformed* and compare its outcome with this run's."""
        ref = self.sim
        if self.failure is not None:
            return DiffReport(False, reason=self.failure,
                              original_steps=0 if ref is None
                              else ref.stats.steps)
        budget = min(self.max_steps, max(MIN_BUDGET,
                                         int(ref.stats.steps * step_ratio)))
        try:
            out, out_fail = _run(transformed, budget)
        except _LoadError as exc:
            return DiffReport(False,
                              reason=f"transformed failed to load: {exc}",
                              original_steps=ref.stats.steps)
        if out_fail is not None:
            return DiffReport(False, reason=f"transformed: {out_fail}",
                              original_steps=ref.stats.steps,
                              transformed_steps=out.stats.steps)

        report = DiffReport(True, original_steps=ref.stats.steps,
                            transformed_steps=out.stats.steps)
        # Jump-table words (code_refs) hold *code addresses* that the
        # loader re-resolves against each program's own label layout: they
        # differ between layouts by design and are not architectural state.
        skip = {a + k for a in (set(self.program.code_refs)
                                | set(transformed.code_refs))
                for k in range(4)}
        _compare_outcomes(ref, out, registers, report, skip)
        return report


def run_reference(original: Program,
                  max_steps: int = 20_000_000) -> Reference:
    """Run *original* once, for :meth:`Reference.check` to compare against.

    The original is trusted: if it fails to halt within *max_steps*, every
    check against it is inconclusive and reported as non-equivalent with
    an ``original:`` reason (callers treat that as "cannot certify").
    """
    try:
        sim, fail = _run(original, max_steps)
    except _LoadError as exc:
        return Reference(original, max_steps, None,
                         f"original failed to load: {exc}")
    return Reference(original, max_steps, sim,
                     None if fail is None else f"original: {fail}")


def check_equivalence(original: Program, transformed: Program, *,
                      max_steps: int = 20_000_000, step_ratio: float = 8.0,
                      registers: Sequence[str] = ()) -> DiffReport:
    """Co-simulate *original* and *transformed*; compare final outcomes.

    One-shot form of :func:`run_reference` then :meth:`Reference.check`.
    """
    return run_reference(original, max_steps).check(
        transformed, step_ratio=step_ratio, registers=registers)


def _compare_outcomes(ref: FunctionalSim, out: FunctionalSim,
                      registers: Sequence[str], report: DiffReport,
                      skip: frozenset | set = frozenset()) -> None:
    if ref.stats.halted != out.stats.halted:
        report.equivalent = False
        report.mismatches.append(
            f"halted: {ref.stats.halted} != {out.stats.halted}")
    ref_mem = _nonzero_image(ref.mem)
    out_mem = _nonzero_image(out.mem)
    for pno in sorted(set(ref_mem) | set(out_mem)):
        base = pno << 12
        a = bytearray(ref_mem.get(pno, bytes(4096)))
        b = bytearray(out_mem.get(pno, bytes(4096)))
        for addr in skip:
            if base <= addr < base + 4096:
                a[addr - base] = b[addr - base] = 0
        if a != b:
            report.equivalent = False
            report.mismatches.append(_first_diff(bytes(a), bytes(b), base))
    for reg in registers:
        a = ref.regs.get(reg, ref.ccregs.get(reg))
        b = out.regs.get(reg, out.ccregs.get(reg))
        if a != b:
            report.equivalent = False
            report.mismatches.append(f"{reg}: {a!r} != {b!r}")
    if not report.equivalent and not report.reason:
        report.reason = (f"{len(report.mismatches)} architectural "
                         f"mismatch(es); first: {report.mismatches[0]}")
