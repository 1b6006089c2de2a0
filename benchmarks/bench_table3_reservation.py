"""Table 3 reproduction: reservation-station usage summary.

Paper shape to reproduce: the % of cycles the BRANCH reservation buffer is
full grows dramatically with prediction quality —

    scheme        Compress  Espresso  Xlisp  Grep     (paper, BR column)
    2-bit BP         13.91      9.05  13.67  13.75
    Proposed         44.47     57.9   48.2   53.28
    Perfect BP       64.8      64.8   67.6   69.21

i.e. ``2bitBP << Proposed < PerfectBP``: with mispredictions (or indirect
jumps) stalling fetch, the buffers drain; with better prediction more
branches pile up in flight.  "However, the % times the buffers are full is
not a good indication to suggest performance."

Run:  pytest benchmarks/bench_table3_reservation.py --benchmark-only -s
"""

from repro import r10k_config
from repro.core import compile_baseline, schemes
from repro.eval import format_table3, table3
from repro.sim import FunctionalSim, TimingSim
from repro.workloads import benchmark_programs

COLUMNS = [s.name for s in schemes.columns()]


def test_table3(benchmark, suite_runs):
    # Time one representative scheme simulation (compress / 2bitBP).
    prog = compile_baseline(benchmark_programs(scale=0.3)["compress"]).program

    def one_run():
        fsim = FunctionalSim(prog, record_outcomes=False)
        return TimingSim(r10k_config("twobit")).run(fsim.trace())

    benchmark(one_run)

    print()
    print(format_table3(suite_runs))
    rows = table3(suite_runs)
    # Shape: summed BR occupancy strictly ordered across schemes.
    br = {s: sum(r[s]["BR"] for r in rows) for s in COLUMNS}
    assert br["2bitBP"] <= br["Proposed"] + 1e-9
    assert br["Proposed"] <= br["PerfectBP"] + 1e-9
    # The BR buffer is the contended one; LDST/ALU stay far below it,
    # matching the paper's near-zero LDST/ALU columns.
    for row in rows:
        for s in COLUMNS:
            assert row[s]["LDST"] <= max(25.0, row[s]["BR"] + 25.0)
