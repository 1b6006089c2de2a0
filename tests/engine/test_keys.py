"""Cache-key canonicalization: stability, sensitivity, collisions."""

import subprocess
import sys
from dataclasses import replace

import pytest

from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.engine import (
    SCHEMA_VERSION, canonical, canonical_json, cell_key, digest,
    program_digest,
)
from repro.isa import parse
from repro.sim.config import r10k_config

SRC = ".text\nli r1, 1\nli r2, 2\nadd r3, r1, r2\nhalt\n"


def _prog():
    return parse(SRC, name="tiny")


def test_digest_is_hex_sha256():
    key = digest({"a": 1})
    assert len(key) == 64
    assert all(c in "0123456789abcdef" for c in key)


def test_canonical_json_key_order_independent():
    assert canonical_json({"b": 2, "a": 1}) == canonical_json({"a": 1, "b": 2})


def test_canonical_handles_tuples_and_sets():
    assert canonical((1, 2)) == [1, 2]
    assert canonical({3, 1, 2}) == [1, 2, 3]


def test_canonical_rejects_uncanonicalizable():
    with pytest.raises(TypeError):
        canonical(object())


def test_program_digest_stable_across_reparses():
    assert program_digest(_prog()) == program_digest(_prog())


def test_program_digest_ignores_uid_drift():
    # Parsing other programs first advances the global uid counter; the
    # digest must not see it.
    parse(SRC, name="warmup")
    parse(SRC, name="warmup2")
    assert program_digest(_prog()) == program_digest(_prog())


def test_cell_key_stable_within_process():
    config = r10k_config("twobit")
    k1 = cell_key(_prog(), "2bitBP", DEFAULT_HEURISTICS, config, 1000)
    k2 = cell_key(_prog(), "2bitBP", DEFAULT_HEURISTICS, config, 1000)
    assert k1 == k2


def test_cell_key_sensitive_to_every_component():
    config = r10k_config("twobit")
    base = cell_key(_prog(), "2bitBP", DEFAULT_HEURISTICS, config, 1000)
    assert base != cell_key(
        parse(SRC.replace("li r1, 1", "li r1, 9"), name="tiny"),
        "2bitBP", DEFAULT_HEURISTICS, config, 1000)
    assert base != cell_key(_prog(), "Proposed", DEFAULT_HEURISTICS,
                            config, 1000)
    assert base != cell_key(
        _prog(), "2bitBP",
        replace(DEFAULT_HEURISTICS, speculation_bias=0.99), config, 1000)
    assert base != cell_key(_prog(), "2bitBP", DEFAULT_HEURISTICS,
                            r10k_config("perfect"), 1000)
    assert base != cell_key(_prog(), "2bitBP", DEFAULT_HEURISTICS,
                            config, 2000)
    assert base != cell_key(_prog(), "2bitBP", DEFAULT_HEURISTICS, config,
                            1000, schema_version=SCHEMA_VERSION + 1)


def test_no_collisions_across_benchmarks():
    from repro.workloads import benchmark_programs

    config = r10k_config("twobit")
    progs = benchmark_programs(0.01)
    keys = {cell_key(p, s, DEFAULT_HEURISTICS, config, 1000)
            for p in progs.values()
            for s in ("2bitBP", "Proposed", "PerfectBP")}
    assert len(keys) == len(progs) * 3


CHILD = r"""
import sys
sys.path.insert(0, {src_path!r})
from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.engine import cell_key
from repro.isa import parse
from repro.sim.config import r10k_config
prog = parse({src!r}, name="tiny")
print(cell_key(prog, "2bitBP", DEFAULT_HEURISTICS,
               r10k_config("twobit"), 1000))
"""


def test_cell_key_stable_across_processes(tmp_path):
    """The same inputs hash identically under different hash seeds."""
    import repro

    src_path = str(next(iter(repro.__path__)) + "/..")
    script = CHILD.format(src_path=src_path, src=SRC)
    keys = set()
    for hashseed in ("0", "42"):
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"},
            check=True)
        keys.add(out.stdout.strip())
    config = r10k_config("twobit")
    keys.add(cell_key(parse(SRC, name="tiny"), "2bitBP",
                      DEFAULT_HEURISTICS, config, 1000))
    assert len(keys) == 1, f"key drift across processes: {keys}"


def test_every_spec_field_but_benchmark_strict_is_keyed():
    """A spec field outside the key would let two different cells share
    one cached result; only the label and the fail-fast flag may."""
    from dataclasses import fields

    import repro.engine as engine

    prog = _prog()
    keyed = {
        "scheme": "PerfectBP",
        "program": parse(SRC.replace("li r2, 2", "li r2, 3"),
                         name="tiny").to_dict(),
        "heur": replace(DEFAULT_HEURISTICS, speculation_bias=0.7),
        "config_overrides": (("fetch_width", 8),),
        "max_steps": 1,
    }
    unkeyed = {"benchmark": "other", "strict": True}
    assert {f.name for f in fields(engine.CellSpec)} == \
        set(keyed) | set(unkeyed)
    spec = engine.CellSpec(benchmark="tiny", scheme="Proposed",
                           program=prog.to_dict())
    key = engine.spec_key(spec)
    for name, value in keyed.items():
        assert engine.spec_key(replace(spec, **{name: value})) != key, name
    for name, value in unkeyed.items():
        assert engine.spec_key(replace(spec, **{name: value})) == key, name
