"""Compiler transformations: speculation, guarded execution, branch-likely
conversion, and the paper's split-branch transformation."""

from .renaming import RESERVED, free_registers, used_registers
from .forward_subst import forward_substitute_at, forward_substitute_block, is_copy
from .speculation import (
    SpeculationReport, duplicate_into_predecessors, is_speculatable,
    speculate_from_successor,
)
from .ifconvert import (
    IfConvertResult, branch_condition_to_cc, find_diamond, if_convert_diamond,
    lower_guards,
)
from .meld import MeldResult, meld_diamond
from .branch_likely import LikelyReport, apply_branch_likely, negate_branch
from .branch_split import (
    SplitNotApplicable, SplitReport, ensure_preheader, insert_counter,
    split_branch, split_branch_inline, split_branch_sectioned,
    split_from_profile,
)
from .hyperblock import (
    HyperblockReport, form_hyperblocks, merge_straightline_blocks,
)
from .dce import eliminate_dead_code
from .copyprop import propagate_copies, propagate_copies_block

__all__ = [
    "RESERVED", "free_registers", "used_registers",
    "forward_substitute_at", "forward_substitute_block", "is_copy",
    "SpeculationReport", "duplicate_into_predecessors", "is_speculatable",
    "speculate_from_successor",
    "IfConvertResult", "branch_condition_to_cc", "find_diamond",
    "if_convert_diamond", "lower_guards",
    "MeldResult", "meld_diamond",
    "LikelyReport", "apply_branch_likely", "negate_branch",
    "SplitNotApplicable", "SplitReport", "ensure_preheader", "insert_counter",
    "split_branch", "split_branch_inline", "split_branch_sectioned",
    "split_from_profile",
    "HyperblockReport", "form_hyperblocks", "merge_straightline_blocks",
    "eliminate_dead_code", "propagate_copies", "propagate_copies_block",
]
