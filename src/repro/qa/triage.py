"""Triage: turn raw divergences into stable, comparable buckets.

A bucket key is ``(failing pass, divergence kind, first-diff location)``:

* **failing pass** — the first contained pass failure of the scheme's
  compile if it degraded, else the scheme name itself (a silent
  miscompile has no recorded pass failure — the scheme's enabled
  transforms are the suspect set);
* **divergence kind** — :attr:`repro.robust.diffcheck.DiffReport.kind`
  (mem/reg/halt mismatch, crash, timeout, load failure…);
* **first-diff location** — the first mismatch's location token, with hex
  addresses masked to their page so two corpus entries differing only in
  low address bits share a bucket.

Two campaign runs (or a campaign and its replay) that hit the same root
cause therefore land in the same directory under ``corpus/``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

#: Filesystem-safe bucket characters; everything else becomes ``-``.
_SANITIZE = re.compile(r"[^A-Za-z0-9_.@-]+")
#: Hex addresses inside a location token, masked to 4 KiB pages.
_HEX_ADDR = re.compile(r"0x([0-9A-Fa-f]+)")


def _mask_addr(m: re.Match) -> str:
    return f"0x{(int(m.group(1), 16) >> 12):X}xxx"


def bucket_id(failing_pass: str, kind: str, location: str) -> str:
    """The canonical bucket key, safe to use as a directory name."""
    loc = _HEX_ADDR.sub(_mask_addr, location or "none")
    parts = [_SANITIZE.sub("-", p).strip("-") or "none"
             for p in (failing_pass, kind, loc)]
    return "--".join(parts)


@dataclass
class TriageEntry:
    """One bucketed divergence (optionally with its shrunk reproducer)."""

    strategy: str
    seed: int
    scheme: str
    kind: str
    location: str
    failing_pass: str
    report: dict                      # DiffReport.to_dict() payload
    program_text: str = ""            # original failing program (assembly)
    shrunk_text: str = ""             # minimized reproducer, if shrunk
    shrink: Optional[dict] = None     # ShrinkResult.to_dict() payload
    error: Optional[str] = None       # cell-level crash instead of a diff

    @property
    def bucket(self) -> str:
        """This entry's bucket key."""
        return bucket_id(self.failing_pass, self.kind, self.location)

    @property
    def name(self) -> str:
        """Stable per-entry name (strategy + seed identify the program)."""
        return f"{self.strategy}-{self.seed}-{self.scheme}"

    def to_dict(self) -> dict:
        """JSON-serializable form for corpus metadata files."""
        return {
            "bucket": self.bucket,
            "strategy": self.strategy,
            "seed": self.seed,
            "scheme": self.scheme,
            "kind": self.kind,
            "location": self.location,
            "failing_pass": self.failing_pass,
            "report": self.report,
            "shrink": self.shrink,
            "error": self.error,
        }


def triage_divergence(payload: dict, scheme: str) -> TriageEntry:
    """Build a :class:`TriageEntry` from one fuzz-cell payload's scheme.

    *payload* is an :func:`repro.qa.cells.execute_fuzz_cell` result whose
    ``divergent`` list contains *scheme*.
    """
    cell = payload["schemes"][scheme]
    report = cell["report"]
    return TriageEntry(
        strategy=payload["strategy"],
        seed=payload["seed"],
        scheme=scheme,
        kind=report["kind"],
        location=report["first_diff"],
        failing_pass=cell.get("failing_stage") or scheme,
        report=report,
    )


def triage_cell_error(payload: dict) -> TriageEntry:
    """Bucket a cell whose machinery crashed before producing verdicts."""
    error = payload.get("error") or "unknown"
    return TriageEntry(
        strategy=payload["strategy"],
        seed=payload["seed"],
        scheme="cell",
        kind="cell-error",
        location=error.split(":", 1)[0],
        failing_pass="harness",
        report={},
        error=error,
    )
