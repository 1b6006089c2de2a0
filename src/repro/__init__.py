"""repro — reproduction of Srinivas & Nicolau (IPPS 1998), "Analyzing the
Individual/Combined Effects of Speculative and Guarded Execution on a
Superscalar Architecture".

Public API tour
---------------
ISA + programs        repro.isa          (parse, Program, Instruction)
Control flow          repro.cfg          (build_cfg, LoopForest, liveness)
Machine               repro.sim          (FunctionalSim, TimingSim, simulate)
Feedback metrics      repro.profilefb    (ProfileDB, BranchHistory, classify)
Scheduling            repro.sched        (list_schedule, schedule_region)
Transformations       repro.transform    (speculation, if-conversion,
                                          branch-likely, branch splitting)
The contribution      repro.core         (cost model, Figure 6 algorithm,
                                          compile_baseline/compile_proposed)
Workloads             repro.workloads    (compress/espresso/xlisp/grep kernels)
Experiments           repro.eval         (scheme results, Tables 1-4)
Observability         repro.obs          (tracing spans, hot-PC sampling)
Unified facade        repro.api          (Session: one front door for
                                          benchmark/suite/sweep/fuzz runs)

Quickstart::

    from repro import compile_baseline, compile_proposed, simulate, r10k_config
    from repro.workloads import compress_program

    prog = compress_program()
    base = compile_baseline(prog).program
    prop = compile_proposed(prog).program
    print(simulate(base, r10k_config("twobit")).ipc)
    print(simulate(prop, r10k_config("twobit")).ipc)
"""

from .isa import Instruction, Program, parse
from .sim import (
    FunctionalSim, MachineConfig, R10K, SimStats, TimingSim, r10k_config,
    run_program, simulate,
)
from .profilefb import BranchHistory, ProfileDB
from .core import (
    DEFAULT_HEURISTICS, FeedbackHeuristics, compile_baseline,
    compile_proposed, compile_variant, decide,
)
from .api import Session

__version__ = "1.0.0"

__all__ = [
    "Instruction", "Program", "parse",
    "FunctionalSim", "MachineConfig", "R10K", "SimStats", "TimingSim",
    "r10k_config", "run_program", "simulate",
    "BranchHistory", "ProfileDB",
    "DEFAULT_HEURISTICS", "FeedbackHeuristics", "compile_baseline",
    "compile_proposed", "compile_variant", "decide",
    "Session",
    "__version__",
]
