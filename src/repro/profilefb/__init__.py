"""Feedback metrics: branch outcome bit vectors, classification, patterns,
iteration-space segmentation, and the profile database (paper Sections 4-5).
"""

from .bitvector import BranchHistory
from .segments import Segment, segment_history
from .patterns import (
    PatternInfo, analyze_pattern, boundaries_stable, detect_period,
    is_instrumentable,
)
from .classify import (
    BranchClass, Classification, ClassifyConfig, classify,
)
from .profiledb import BranchProfile, ProfileDB

__all__ = [
    "BranchHistory",
    "Segment", "segment_history",
    "PatternInfo", "analyze_pattern", "boundaries_stable", "detect_period",
    "is_instrumentable",
    "BranchClass", "Classification", "ClassifyConfig", "classify",
    "BranchProfile", "ProfileDB",
]
