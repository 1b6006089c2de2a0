"""Synthetic benchmark programs standing in for the paper's SPEC/unix
workloads (compress, espresso, xlisp, grep) — see DESIGN.md section 3 for
the substitution rationale.  Each module carries a bit-exact Python
reference implementation used by the test suite.
"""

from .common import AUX_BASE, OUT_BASE, SRC_BASE, lcg_next
from .compress import compress_program, compress_reference, compress_source
from .espresso import espresso_program, espresso_reference, espresso_source
from .xlisp import xlisp_program, xlisp_reference, xlisp_source
from .grep import grep_program, grep_reference, grep_source
from .synth import biased_loop_program, phased_loop_program
from .imported import load_imported

#: The paper's benchmark suite, name -> default-scale program factory.
BENCHMARKS = {
    "compress": compress_program,
    "espresso": espresso_program,
    "xlisp": xlisp_program,
    "grep": grep_program,
}


def _derived_seeds(seed):
    """Per-benchmark seeds from one master seed (None = module defaults).

    Each benchmark gets a distinct odd 31-bit seed via a Weyl-style mix so
    ``seed=N`` never feeds the same LCG stream to two benchmarks.
    """
    if seed is None:
        return {}
    mixed = {name: ((seed * 0x9E3779B1 + i * 0x85EBCA6B) & 0x7FFFFFFF) | 1
             for i, name in enumerate(("compress", "espresso", "grep"))}
    return mixed


def benchmark_programs(scale: float = 1.0, seed=None):
    """Instantiate all four benchmarks, optionally scaled and re-seeded.

    scale multiplies each benchmark's primary size parameter (input bytes,
    cube count, VM iterations, text bytes).  seed, when given, re-seeds the
    input generators of the stochastic benchmarks (compress, espresso,
    grep) with per-benchmark derivations; xlisp's workload is fully
    deterministic and takes no seed.  ``seed=None`` keeps the fixed
    defaults, so repeated calls are bit-identical either way.
    """
    seeds = _derived_seeds(seed)
    compress_kw = {"seed": seeds["compress"]} if seeds else {}
    espresso_kw = {"seed": seeds["espresso"]} if seeds else {}
    grep_kw = {"seed": seeds["grep"]} if seeds else {}
    return {
        "compress": compress_program(n=max(64, int(4000 * scale)),
                                     **compress_kw),
        "espresso": espresso_program(m=max(16, int(120 * scale)),
                                     **espresso_kw),
        "xlisp": xlisp_program(k=max(8, int(600 * scale))),
        "grep": grep_program(n=max(64, int(6000 * scale)), **grep_kw),
    }


__all__ = [
    "AUX_BASE", "OUT_BASE", "SRC_BASE", "lcg_next",
    "compress_program", "compress_reference", "compress_source",
    "espresso_program", "espresso_reference", "espresso_source",
    "xlisp_program", "xlisp_reference", "xlisp_source",
    "grep_program", "grep_reference", "grep_source",
    "biased_loop_program", "phased_loop_program",
    "load_imported",
    "BENCHMARKS", "benchmark_programs",
]
