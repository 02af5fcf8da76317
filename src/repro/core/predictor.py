"""The usefulness predictor (Section IV-B).

A small cache in front of the UBS ways: every block arriving from L2 is
placed here first, with a bit-vector recording which bytes the core
fetches. When the predictor evicts a block, the accessed bytes define the
sub-blocks that move into the UBS ways; unaccessed bytes are discarded.

Section VI-J evaluates several organisations; all are supported:

* direct-mapped with 64 or 128 sets (the default is DM-64),
* set-associative with LRU or FIFO replacement,
* fully associative (``sets=1, ways=n``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError
from ..params import TRANSFER_BLOCK


@dataclass(frozen=True)
class PredictorConfig:
    """Organisation of the usefulness predictor."""

    sets: int = 64
    ways: int = 1
    policy: str = "lru"      # "lru" | "fifo" (direct-mapped ignores this)

    def __post_init__(self) -> None:
        if self.sets <= 0 or self.sets & (self.sets - 1):
            raise ConfigurationError("predictor sets must be a power of two")
        if self.ways <= 0:
            raise ConfigurationError("predictor ways must be positive")
        if self.policy not in ("lru", "fifo"):
            raise ConfigurationError(f"unknown predictor policy {self.policy!r}")

    @property
    def entries(self) -> int:
        return self.sets * self.ways

    @classmethod
    def direct_mapped(cls, sets: int = 64) -> "PredictorConfig":
        return cls(sets=sets, ways=1)

    @classmethod
    def set_associative(cls, entries: int = 64, ways: int = 8,
                        policy: str = "lru") -> "PredictorConfig":
        if entries % ways:
            raise ConfigurationError("entries must be divisible by ways")
        return cls(sets=entries // ways, ways=ways, policy=policy)

    @classmethod
    def fully_associative(cls, entries: int = 64,
                          policy: str = "lru") -> "PredictorConfig":
        return cls(sets=1, ways=entries, policy=policy)


class UsefulnessPredictor:
    """Tracks accessed bytes of recently fetched 64-byte blocks."""

    __slots__ = ("config", "_index_mask", "_blocks", "_masks", "_stamp",
                 "_clock", "_lru", "hits", "evictions", "_resident",
                 "_used_bits")

    def __init__(self, config: Optional[PredictorConfig] = None) -> None:
        self.config = config or PredictorConfig()
        sets, ways = self.config.sets, self.config.ways
        self._index_mask = sets - 1
        self._blocks: List[List[Optional[int]]] = [
            [None] * ways for _ in range(sets)
        ]
        self._masks: List[List[int]] = [[0] * ways for _ in range(sets)]
        self._stamp: List[List[int]] = [[-1] * ways for _ in range(sets)]
        self._clock = 0
        self._lru = self.config.policy == "lru"
        self.hits = 0
        self.evictions = 0
        # Incremental storage accounting so ``storage_snapshot`` (called on
        # every efficiency sample) is O(1) instead of a full-array walk.
        self._resident = 0
        self._used_bits = 0

    def _find(self, block: int) -> Tuple[int, int]:
        set_idx = block & self._index_mask
        blocks = self._blocks[set_idx]
        return set_idx, blocks.index(block) if block in blocks else -1

    # -- interface --------------------------------------------------------------

    def contains(self, block: int) -> bool:
        return block in self._blocks[block & self._index_mask]

    def mark(self, block: int, offset: int, nbytes: int) -> bool:
        """Record a fetch of ``nbytes`` at ``offset``; True if present."""
        set_idx = block & self._index_mask
        blocks = self._blocks[set_idx]
        if block not in blocks:          # a miss is the common case
            return False
        way = blocks.index(block)
        self.hits += 1
        masks = self._masks[set_idx]
        old = masks[way]
        new = old | ((1 << nbytes) - 1) << offset
        if new != old:
            masks[way] = new
            self._used_bits += (new ^ old).bit_count()
        if self._lru:
            self._clock += 1
            self._stamp[set_idx][way] = self._clock
        return True

    def mark_bits(self, block: int, mask: int) -> bool:
        """OR arbitrary useful bits into a resident block's bit-vector."""
        set_idx, way = self._find(block)
        if way < 0:
            return False
        masks = self._masks[set_idx]
        old = masks[way]
        new = old | mask
        masks[way] = new
        self._used_bits += new.bit_count() - old.bit_count()
        return True

    def insert(self, block: int,
               initial_mask: int = 0) -> Optional[Tuple[int, int]]:
        """Place an incoming block; returns the evicted ``(block, mask)``.

        Inserting a block that is already resident merges the masks and
        evicts nothing (a merged fill).
        """
        set_idx, way = self._find(block)
        if way >= 0:
            masks = self._masks[set_idx]
            old = masks[way]
            new = old | initial_mask
            masks[way] = new
            self._used_bits += new.bit_count() - old.bit_count()
            return None
        blocks = self._blocks[set_idx]
        if None in blocks:
            way = blocks.index(None)
            evicted = None
            self._resident += 1
        else:
            stamps = self._stamp[set_idx]
            way = stamps.index(min(stamps))
            evicted = (blocks[way], self._masks[set_idx][way])
            self.evictions += 1
            self._used_bits -= evicted[1].bit_count()
        blocks[way] = block
        self._masks[set_idx][way] = initial_mask
        self._used_bits += initial_mask.bit_count()
        self._clock += 1
        self._stamp[set_idx][way] = self._clock
        return evicted

    def evict(self, block: int) -> Optional[Tuple[int, int]]:
        """Force a block out (used when moving it to the UBS ways)."""
        set_idx, way = self._find(block)
        if way < 0:
            return None
        result = (block, self._masks[set_idx][way])
        self._blocks[set_idx][way] = None
        self._masks[set_idx][way] = 0
        self._stamp[set_idx][way] = -1
        self.evictions += 1
        self._resident -= 1
        self._used_bits -= result[1].bit_count()
        return result

    def entries(self) -> Iterator[Tuple[int, int]]:
        """Iterate resident ``(block, mask)`` pairs."""
        for set_idx in range(self.config.sets):
            blocks = self._blocks[set_idx]
            masks = self._masks[set_idx]
            for way in range(self.config.ways):
                if blocks[way] is not None:
                    yield blocks[way], masks[way]

    def storage_snapshot(self) -> Tuple[int, int]:
        return self._used_bits, self._resident * TRANSFER_BLOCK

    def metrics(self, prefix: str = "predictor") -> Dict[str, int]:
        """Hit/eviction/content counters under ``prefix``."""
        return {f"{prefix}.hits": self.hits,
                f"{prefix}.evictions": self.evictions,
                f"{prefix}.blocks": self.block_count()}

    def block_count(self) -> int:
        return sum(1 for _ in self.entries())
