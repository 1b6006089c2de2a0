"""Suite-wide fixtures and helpers.

Tests must never touch the developer's real artifact cache (or litter the
repository with ``.repro-cache/``), so every test sees a throwaway
``REPRO_CACHE_DIR`` unless it overrides the location itself.
"""

import threading

import pytest

import repro.core.schemes as schemes_mod
import repro.fastsim.backend as backend_mod
from repro.isa import parse
from repro.workloads import AUX_BASE


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path, monkeypatch):
    """Point the default artifact-cache root at a per-test temp dir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


class EngineWork:
    """Compiles and simulations run in this process since :meth:`reset`.

    Counts calls of :func:`repro.core.schemes.compile_scheme` and
    :func:`repro.fastsim.backend.simulate`, the two functions every
    engine cell runs through.  Pool workers count in their own processes;
    serve's fleet threads count here.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.compiles = 0
        self.simulates = 0

    def reset(self) -> None:
        with self._lock:
            self.compiles = self.simulates = 0

    def counting(self, field: str, fn):
        """*fn*, adding one to *field* per call."""
        def counted(*args, **kwargs):
            with self._lock:
                setattr(self, field, getattr(self, field) + 1)
            return fn(*args, **kwargs)
        return counted


@pytest.fixture()
def engine_work(monkeypatch):
    """An :class:`EngineWork` counting from the start of the test."""
    work = EngineWork()
    monkeypatch.setattr(schemes_mod, "compile_scheme", work.counting(
        "compiles", schemes_mod.compile_scheme))
    monkeypatch.setattr(backend_mod, "simulate", work.counting(
        "simulates", backend_mod.simulate))
    return work


def biased_loop_program(iterations=500, period=8, body_ops=2):
    """A loop whose branch is taken except once every *period* iterations
    (bias = 1 - 1/period) — a branch-likely candidate."""
    lines = [
        ".text",
        "main:",
        "    li   r1, 0",
        f"    li   r2, {iterations}",
        "loop:",
        f"    li   r6, {period}",
        "    rem  r5, r1, r6",
        "    bnez r5, arm_taken",
    ]
    lines += [f"    addi r11, r11, {i + 1}" for i in range(body_ops)]
    lines += [
        "    j    latch",
        "arm_taken:",
    ]
    lines += [f"    addi r10, r10, {i + 1}" for i in range(body_ops)]
    lines += [
        "latch:",
        "    addi r1, r1, 1",
        "    bne  r1, r2, loop",
        f"    li   r7, {AUX_BASE}",
        "    sw   r10, 0(r7)",
        "    halt",
    ]
    return parse("\n".join(lines), name="synth-biased")
