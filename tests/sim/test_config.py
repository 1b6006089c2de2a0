"""A machine the simulators cannot run is refused at construction, by
field name.

Several of these values (``rob_size=0``, ``num_alus=0``,
``dispatch_width=0``, ...) left a timing model stalled on its first
instruction, which no step budget stops; no test here simulates one.
"""

import pytest

from repro.sim.config import r10k_config

#: Tables and caches the predictor or the cache model cannot index.
UNINDEXABLE = [
    ("bht_entries", 100), ("icache_size", 1000), ("dcache_size", 1000),
    ("cache_line", 24), ("cache_assoc", 3),
]

UNRUNNABLE = [
    ("dispatch_width", 0), ("commit_width", 0),
    ("int_queue_size", 0), ("addr_queue_size", 0), ("fp_queue_size", 0),
    ("branch_buffer_size", 0), ("rob_size", 0), ("rob_size", -1),
    ("num_alus", 0), ("num_shifters", 0), ("num_mem_units", 0),
    ("num_branch_units", 0), ("num_fpadd", 0), ("num_fpmul", 0),
    ("num_fpdiv", 0),
    ("phys_int_regs", 32), ("phys_fp_regs", 16),
    ("misprediction_recovery", -1), ("fence_stall", -1),
    ("icache_size", 0), ("dcache_size", 0), ("cache_line", 0),
    ("cache_assoc", 0),
] + UNINDEXABLE


@pytest.mark.parametrize("field,value", UNRUNNABLE,
                         ids=[f"{f}={v}" for f, v in UNRUNNABLE])
def test_unrunnable_value_is_refused_by_name(field, value):
    with pytest.raises(ValueError, match=f"MachineConfig.{field} "):
        r10k_config(**{field: value})

