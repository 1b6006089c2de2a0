"""The step budget is a cell's one bound.

``max_steps`` is part of every cell key, and the profiling run and the
simulation both stop at it, so a program that never halts fails each of
its cells with ``StepBudgetExceeded`` on every executor.  No wall-clock
bound is left beside it: not in the options, the cell specs, the wire
or any engine, tune or serve signature.
"""

import dataclasses
import inspect

import pytest

import repro.engine as engine
from repro.api import Session
from repro.engine import CellSpec, LocalExecutor, run_suite, run_sweep
from repro.engine.cells import cell_grid
from repro.isa import parse
from repro.serve import EvalServer, ServeClient, ServeConfig, protocol
from repro.serve.client import suite_cells
from repro.tune import run_tune
from repro.tune.evaluate import candidate_cells

SPIN = """.text
main:
    li   r1, 0
loop:
    addi r1, r1, 1
    j    loop
"""

MAX_STEPS = 20_000


def _spin():
    return parse(SPIN, name="spin")


def test_no_wall_clock_bound_is_left():
    assert "timeout" not in {f.name for f in dataclasses.fields(CellSpec)}
    spec = CellSpec(benchmark="spin", scheme="Proposed",
                    program=_spin().to_dict())
    assert "timeout" not in protocol.cellspec_to_payload(spec)
    for fn in (Session, cell_grid, run_suite, run_sweep, run_tune,
               candidate_cells, suite_cells):
        assert "timeout" not in inspect.signature(fn).parameters, \
            fn.__name__
    assert not hasattr(engine, "CellTimeout")


def test_v5_submission_is_refused():
    """A v5 peer may send a ``timeout`` this side would silently ignore."""
    spec = CellSpec(benchmark="spin", scheme="Proposed",
                    program=_spin().to_dict())
    body = {"protocol": 5, "tenant": "t", "kind": "cells",
            "cells": [{"key": engine.spec_key(spec),
                       "spec": {**protocol.cellspec_to_payload(spec),
                                "timeout": 1.0}}]}
    with pytest.raises(protocol.ProtocolError,
                       match="peer speaks protocol 5"):
        protocol.validate_submission(body)


def _suite(programs: dict, executor):
    return run_suite(benchmarks=programs, max_steps=MAX_STEPS,
                     executor=executor)


@pytest.mark.parametrize("where", [1, 2, "serve"],
                         ids=["jobs=1", "jobs=2", "serve"])
def test_non_terminating_program_fails_every_cell(where, tmp_path):
    programs = {"spin": _spin()}
    if where == "serve":
        config = ServeConfig(port=0, workers=2, cache_dir=tmp_path / "cache",
                             rate=1000.0, burst=1000)
        with EvalServer(config) as server:
            runs = _suite(programs, ServeClient(server.url, tenant="spin",
                                                timeout=60.0))
    else:
        runs = _suite(programs, LocalExecutor(where))
    failures = [cell.failure for cell in runs["spin"].results.values()]
    assert len(failures) == 5
    assert all(f is not None and f.startswith("StepBudgetExceeded")
               for f in failures), failures
