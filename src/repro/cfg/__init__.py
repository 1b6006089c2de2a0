"""Control-flow substrate: basic blocks, CFG, dominators, loops, liveness."""

from .basic_block import BasicBlock
from .graph import CFG, Edge, build_cfg
from .dominators import Dominators, PostDominators
from .loops import Loop, LoopBranch, LoopForest
from .liveness import LivenessInfo, live_after_index, liveness
from .defuse import DefUse, analyze_block, single_use

__all__ = [
    "BasicBlock", "CFG", "Edge", "build_cfg",
    "Dominators", "PostDominators",
    "Loop", "LoopBranch", "LoopForest",
    "LivenessInfo", "live_after_index", "liveness",
    "DefUse", "analyze_block", "single_use",
]
