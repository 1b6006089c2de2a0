"""Suite-wide fixtures and helpers.

Tests must never touch the developer's real artifact cache (or litter the
repository with ``.repro-cache/``), so every test sees a throwaway
``REPRO_CACHE_DIR`` unless it overrides the location itself.
"""

import pytest

from repro.isa import parse
from repro.workloads import AUX_BASE


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path, monkeypatch):
    """Point the default artifact-cache root at a per-test temp dir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


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
