"""Static machine model for the compiler's schedulers.

This is the *scheduler's* view of the machine — issue slots per cycle per
unit class and operation latencies — as opposed to the dynamic model in
:mod:`repro.sim.pipeline`.  The paper's cost examples (Figure 2) annotate
blocks with "schedule lengths obtained using a local scheduler" against
exactly such a model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.instruction import Instruction
from ..isa.opcodes import Unit
from ..sim.config import Latencies, MachineConfig, R10K

#: unit-class key used for slot accounting
_UNIT_KEY = {
    Unit.ALU: "alu",
    Unit.SHIFT: "sft",
    Unit.MEM: "mem",
    Unit.BRANCH: "br",
    Unit.FPADD: "fpadd",
    Unit.FPMUL: "fpmul",
    Unit.FPDIV: "fpdiv",
    Unit.NONE: "alu",
}


@dataclass(frozen=True)
class MachineModel:
    """Issue resources and latencies as the scheduler sees them."""

    issue_width: int = 4
    slots: dict[str, int] = field(default_factory=lambda: {
        "alu": 2, "sft": 1, "mem": 1, "br": 1,
        "fpadd": 1, "fpmul": 1, "fpdiv": 1,
    })
    latencies: Latencies = field(default_factory=Latencies)

    @classmethod
    def from_config(cls, cfg: MachineConfig = R10K) -> "MachineModel":
        return cls(
            issue_width=cfg.dispatch_width,
            slots={
                "alu": cfg.num_alus, "sft": cfg.num_shifters,
                "mem": cfg.num_mem_units, "br": cfg.num_branch_units,
                "fpadd": cfg.num_fpadd, "fpmul": cfg.num_fpmul,
                "fpdiv": cfg.num_fpdiv,
            },
            latencies=cfg.latencies,
        )

    def unit_key(self, ins: Instruction) -> str:
        return _UNIT_KEY[ins.info.unit]

    def latency(self, ins: Instruction) -> int:
        return self.latencies.of_class(ins.info.latency_class)

    def slots_for(self, unit_key: str) -> int:
        return self.slots.get(unit_key, 1)

    def total_slots_per_cycle(self) -> int:
        """Upper bound of operations startable per cycle (min of issue
        width and summed unit slots)."""
        return min(self.issue_width, sum(self.slots.values()))


#: Default model matching the paper's R10000 description.
DEFAULT_MODEL = MachineModel()
