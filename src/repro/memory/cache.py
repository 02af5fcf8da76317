"""LRU set-associative cache used for L1-D, L2 and L3.

These levels only need functional contents plus hit/miss accounting — the
timing is composed by :class:`~repro.memory.hierarchy.MemoryHierarchy`.

Each set is one insertion-ordered ``dict`` of resident block numbers,
least recently used first: a hit moves its block to the end, a fill
appends, and a fill into a full set evicts the first key. That is exact
LRU: the oldest hit-or-fill is the block the dict holds first, and free
ways are used before any eviction. The L1-I models, whose policies are
pluggable, keep :mod:`~repro.memory.replacement`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ConfigurationError
from ..params import CacheParams


class Cache:
    """LRU set-associative cache.

    ``blocks[set]`` maps each resident block number (``addr >>
    offset_bits``) to ``None``, in LRU-to-MRU order. The hierarchy walks
    L2 and L3 on these dicts directly; :meth:`touch` and :meth:`fill` are
    the same steps for callers that need them separately.
    """

    __slots__ = ("params", "sets", "ways", "offset_bits", "index_mask",
                 "blocks", "hits", "misses")

    def __init__(self, params: CacheParams) -> None:
        if params.replacement != "lru":
            raise ConfigurationError(
                f"{params.name}: the L1-D/L2/L3 cache is LRU; replacement "
                f"{params.replacement!r} is only modelled for the L1-I"
            )
        self.params = params
        self.sets = params.sets
        self.ways = params.ways
        self.offset_bits = params.offset_bits
        self.index_mask = self.sets - 1
        self.blocks: List[Dict[int, None]] = [{} for _ in range(self.sets)]
        self.hits = 0
        self.misses = 0

    def probe(self, addr: int) -> bool:
        """Presence check without any state change."""
        block = addr >> self.offset_bits
        return block in self.blocks[block & self.index_mask]

    def touch(self, addr: int) -> bool:
        """Lookup without fill: updates recency and counters."""
        block = addr >> self.offset_bits
        blocks = self.blocks[block & self.index_mask]
        if block in blocks:
            del blocks[block]
            blocks[block] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, addr: int) -> Optional[int]:
        """Install the block containing ``addr``; returns the evicted block
        address (full address of its first byte) or None. Filling a
        resident block (a merged fill) changes nothing."""
        block = addr >> self.offset_bits
        blocks = self.blocks[block & self.index_mask]
        if block in blocks:
            return None
        evicted = None
        if len(blocks) == self.ways:
            victim = next(iter(blocks))
            del blocks[victim]
            evicted = victim << self.offset_bits
        blocks[block] = None
        return evicted

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
