"""Control-flow substrate: basic blocks, CFG, dominators, loops, liveness."""

from .basic_block import BasicBlock
from .graph import CFG, Edge, build_cfg
from .dominators import Dominators
from .loops import Loop, LoopBranch, LoopForest
from .liveness import LivenessInfo, liveness

__all__ = [
    "BasicBlock", "CFG", "Edge", "build_cfg",
    "Dominators",
    "Loop", "LoopBranch", "LoopForest",
    "LivenessInfo", "liveness",
]
