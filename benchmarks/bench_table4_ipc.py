"""Table 4 reproduction: functional-unit usage and IPC.

Paper shape to reproduce (IPC row):

    scheme        Compress  Espresso  Xlisp  Grep
    2-bit BP          0.63      0.68   0.61  0.64
    Proposed          1.16      1.36   0.98  1.25
    Perfect BP        1.51      1.53   1.33  1.49

i.e. per benchmark ``IPC(2bitBP) < IPC(Proposed) <= IPC(PerfectBP)``, with
the proposed scheme recovering a large share of the perfect-prediction
headroom, and functional-unit saturation rising alongside.  Absolute IPCs
differ (our kernels, their testbed); the ordering and the direction of the
unit-usage shift are the reproduction targets.

Run:  pytest benchmarks/bench_table4_ipc.py --benchmark-only -s
"""

from repro import r10k_config
from repro.core import compile_proposed, schemes
from repro.eval import (
    format_improvements, format_shape_verdicts, format_table4,
    shape_verdicts, table4,
)
from repro.sim import FunctionalSim, TimingSim
from repro.workloads import benchmark_programs

COLUMNS = [s.name for s in schemes.columns()]


def test_table4(benchmark, suite_runs):
    # Time the expensive unit: the full proposed-pipeline compilation.
    prog = benchmark_programs(scale=0.3)["espresso"]
    benchmark(compile_proposed, prog)

    print()
    print(format_table4(suite_runs))
    print()
    print(format_improvements(suite_runs))
    print()
    print(format_shape_verdicts(suite_runs))
    for v in shape_verdicts(suite_runs):
        assert v["ipc_ordering_matches"], v["benchmark"]

    rows = table4(suite_runs)
    for row in rows:
        name = row["benchmark"]
        ipc = {s: row[s]["IPC"] for s in COLUMNS}
        # Ordering (Proposed may tie on a benchmark where nothing fires).
        assert ipc["Proposed"] >= ipc["2bitBP"] * 0.99, name
        assert ipc["PerfectBP"] >= ipc["Proposed"] * 0.95, name
    # Aggregate improvement exists (the paper's 0.3-0.6-fold headline).
    ratios = [row["Proposed"]["IPC"] / row["2bitBP"]["IPC"] for row in rows]
    assert max(ratios) >= 1.3
    assert sum(ratios) / len(ratios) > 1.05
    # Unit usage rises with better schemes (summed ALU saturation).
    alu = {s: sum(r[s]["ALU"] for r in rows) for s in COLUMNS}
    assert alu["2bitBP"] <= alu["Proposed"] + 1e-9
