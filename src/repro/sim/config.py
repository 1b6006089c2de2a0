"""Machine configuration for the R10000-like model.

Defaults reproduce the paper's Section 6 description and Table 2 latencies:

* 4-wide in-order fetch/dispatch, out-of-order issue, in-order commit;
* two integer ALUs, a shifter, one address-calculation (load/store) unit,
  three floating-point units (adder, multiplier, divider);
* 16-entry integer, address and FP queues (reservation stations), plus a
  branch reservation buffer;
* 64 physical / 32 architectural registers per file;
* 512-entry 2-bit branch-prediction table, BTB for absolute-target branches;
* 32-KB direct-mapped split I/D caches with a 6-cycle miss penalty;
* latencies: alu 1, ld/st 2, shift 1, fp add/mul/div 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .branch_pred import check_entries
from .cache import check_geometry


@dataclass(frozen=True)
class Latencies:
    """Execution latencies in cycles (paper Table 2)."""

    alu: int = 1
    ldst: int = 2
    sft: int = 1
    fpadd: int = 3
    fpmul: int = 3
    fpdiv: int = 3
    cache_miss_penalty: int = 6

    def of_class(self, latency_class: str) -> int:
        return getattr(self, latency_class)


@dataclass(frozen=True)
class MachineConfig:
    """Full machine description consumed by the timing simulator.

    Construction refuses a configuration the simulators cannot run (a
    zero-width stage, an empty queue, no free rename register, ...): both
    timing models would stall on its first instruction until their
    10**10-cycle guard, and a cell's step budget bounds only its
    functional run.  A predictor table or cache geometry the simulators
    would refuse when a cell starts is refused here too, by the same
    rule (:func:`~repro.sim.branch_pred.check_entries`,
    :func:`~repro.sim.cache.check_geometry`).
    """

    # Pipeline widths (dispatch_width is the in-order front end's width:
    # fetch and dispatch move together)
    dispatch_width: int = 4
    commit_width: int = 4

    # Reservation stations / queues (paper Section 6: 16-entry each)
    int_queue_size: int = 16
    addr_queue_size: int = 16
    fp_queue_size: int = 16
    branch_buffer_size: int = 4

    # Reorder buffer ("active list")
    rob_size: int = 32

    # Functional units
    num_alus: int = 2
    num_shifters: int = 1
    num_mem_units: int = 1
    num_branch_units: int = 1
    num_fpadd: int = 1
    num_fpmul: int = 1
    num_fpdiv: int = 1

    # Register files: 64 physical, 32 architectural (32 free rename regs)
    phys_int_regs: int = 64
    phys_fp_regs: int = 64
    arch_int_regs: int = 32
    arch_fp_regs: int = 32

    # Branch prediction
    bht_entries: int = 512
    btb_entries: int = 512
    predictor: str = "twobit"  # twobit | twolevel | perfect | static-taken
    #: cycles to refill the front end after a misprediction or an indirect
    #: (jr/jalr) stall resolves — models the R10000's fetch/decode depth on
    #: top of branch-resolution time.
    misprediction_recovery: int = 4
    #: extra drain cycles charged after a ``fence`` completes: dispatch
    #: stalls until every older instruction has finished, then waits this
    #: many additional cycles before the front end resumes (models the
    #: store-buffer/speculation-window flush a real serializing barrier
    #: performs).
    fence_stall: int = 3

    # Caches
    icache_size: int = 32 * 1024
    dcache_size: int = 32 * 1024
    cache_line: int = 32
    cache_assoc: int = 1

    latencies: Latencies = field(default_factory=Latencies)

    def __post_init__(self) -> None:
        for name in _AT_LEAST_ONE:
            if getattr(self, name) < 1:
                raise ValueError(f"MachineConfig.{name} must be at least 1, "
                                 f"got {getattr(self, name)!r}")
        for phys, arch in (("phys_int_regs", "arch_int_regs"),
                           ("phys_fp_regs", "arch_fp_regs")):
            if getattr(self, phys) <= getattr(self, arch):
                raise ValueError(
                    f"MachineConfig.{phys} must exceed {arch} "
                    f"({getattr(self, arch)}), got {getattr(self, phys)!r}")
        for name in ("misprediction_recovery", "fence_stall"):
            if getattr(self, name) < 0:
                raise ValueError(f"MachineConfig.{name} must not be "
                                 f"negative, got {getattr(self, name)!r}")
        check_entries(self.bht_entries, "MachineConfig.bht_entries")
        for size in ("icache_size", "dcache_size"):
            check_geometry(getattr(self, size), self.cache_line,
                           self.cache_assoc,
                           (f"MachineConfig.{size}",
                            "MachineConfig.cache_line",
                            "MachineConfig.cache_assoc"))


#: Fields below 1 leave the simulators no stage, slot or unit to make
#: progress with.
_AT_LEAST_ONE = (
    "dispatch_width", "commit_width",
    "int_queue_size", "addr_queue_size", "fp_queue_size",
    "branch_buffer_size", "rob_size",
    "num_alus", "num_shifters", "num_mem_units", "num_branch_units",
    "num_fpadd", "num_fpmul", "num_fpdiv",
)


#: The configuration used throughout the paper's evaluation.
R10K = MachineConfig()


def r10k_config(predictor: str = "twobit", **overrides) -> MachineConfig:
    """The paper's R10000-like machine, optionally overridden.

    >>> r10k_config("perfect").predictor
    'perfect'
    """
    return replace(R10K, predictor=predictor, **overrides)
