"""Memory-system substrate: caches, replacement policies, MSHRs, DRAM."""

from .replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from .ghrp import GHRPPolicy
from .acic import ACICFilter
from .mshr import MSHRFile
from .cache import Cache
from .dram import DRAM
from .hierarchy import MemoryHierarchy
from .icache import (
    ConventionalICache,
    InstructionCacheBase,
    MissKind,
)
from .small_block import SmallBlockICache
from .distillation import DistillationICache

__all__ = [
    "ACICFilter",
    "Cache",
    "ConventionalICache",
    "DRAM",
    "DistillationICache",
    "FIFOPolicy",
    "GHRPPolicy",
    "InstructionCacheBase",
    "LRUPolicy",
    "MemoryHierarchy",
    "MissKind",
    "MSHRFile",
    "RandomPolicy",
    "ReplacementPolicy",
    "SmallBlockICache",
    "make_policy",
]
