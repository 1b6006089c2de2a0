"""Fastsim fault injection: prove the fast path's containment ladder holds.

The fast path's contract (:mod:`repro.fastsim.backend`) is that
*internal* fastsim failures never change results — the run transparently
restarts on the reference interpreter and the decision lands on the
fallback trail.  These injectors corrupt the fast path at each of its
stages so ``tools/inject_faults.py`` and ``tests/robust`` can assert the
claim end to end:

* ``fastsim-bad-codegen`` — the generated specialized-step source is
  corrupted into a ``SyntaxError`` before ``compile()``; contained at
  the **codegen** stage.
* ``fastsim-stale-decode`` — the decode pass returns operand tables
  built from a different (re-parsed) program object, tripping the
  staleness signature check; contained at the **codegen** stage with a
  ``DecodeError: stale decode tables ...`` reason.
* ``fastsim-runtime-crash`` — the generated drive loop raises a
  non-semantic exception (``KeyError``) on entry; contained at the
  **execute** stage after codegen succeeded.

Program-semantic failures (``UnmodeledOpcode``, alignment traps, step
budgets) are deliberately NOT injectable here: both simulators must raise
them identically, producing the same ``FAIL(...)`` cell — that half of
the contract is asserted directly by the containment tests.

All injection happens through documented module hooks
(:data:`repro.fastsim.codegen._SOURCE_TRANSFORM`, the backend's
``decode_program`` binding) inside a context manager that always
restores the pristine state.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..isa.program import Program
from . import backend as _backend
from . import codegen as _codegen

#: Fault-class name -> one-line description (harness report text).
FASTSIM_FAULTS = {
    "fastsim-bad-codegen":
        "generated-step source corrupted into a SyntaxError "
        "(contained: codegen-stage fallback)",
    "fastsim-stale-decode":
        "decode tables from a different program object "
        "(contained: codegen-stage fallback, DecodeError)",
    "fastsim-runtime-crash":
        "generated drive loop raises a non-semantic error "
        "(contained: execute-stage fallback)",
}


def _bad_codegen(src: str) -> str:
    return src + "\n    this is ( not python\n"


def _runtime_crash(src: str) -> str:
    return src.replace(
        "    def drive():",
        "    def drive():\n"
        "        raise KeyError('injected fastsim runtime fault')",
        1)


@contextmanager
def inject_fastsim_fault(name: str) -> Iterator[None]:
    """Corrupt the fast path for the duration of the ``with`` block."""
    if name not in FASTSIM_FAULTS:
        raise ValueError(f"unknown fastsim fault {name!r}: expected one "
                         f"of {sorted(FASTSIM_FAULTS)}")
    if name == "fastsim-stale-decode":
        real = _backend.decode_program

        def stale_decode(prog):
            # Tables from an equal-content clone: the identity half of
            # the staleness signature (prog is not dec.prog_ref()) trips.
            return real(Program.from_dict(prog.to_dict()))

        _backend.decode_program = stale_decode
        try:
            yield
        finally:
            _backend.decode_program = real
        return
    transform = (_bad_codegen if name == "fastsim-bad-codegen"
                 else _runtime_crash)
    prev = _codegen._SOURCE_TRANSFORM
    _codegen._SOURCE_TRANSFORM = transform
    try:
        yield
    finally:
        _codegen._SOURCE_TRANSFORM = prev
