"""Smaller-block-size L1-I baseline (Section VI-G).

The cache stores 16- or 32-byte blocks while the transfer unit from L2
stays 64 bytes: arriving 64-byte blocks are placed in a small FIFO
prefetch/fill buffer and only the chunks the fetch engine actually
requests are promoted into the cache, exactly as the paper describes for
its 16B/32B comparison points.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from ..errors import ConfigurationError, SimulationError
from ..params import TRANSFER_BLOCK
from .icache import InstructionCacheBase, MissKind
from .replacement import LRUPolicy

_HIT = MissKind.HIT
_FULL_MISS = MissKind.FULL_MISS


class SmallBlockICache(InstructionCacheBase):
    """L1-I with sub-64B blocks plus a 64B fill buffer."""

    __slots__ = ("size", "ways", "block_size", "sets", "_offset_bits",
                 "_index_mask", "policy", "_tags", "_accessed", "_buffer",
                 "_buffer_capacity", "buffer_hits", "_resident",
                 "_policy_on_hit", "_policy_victim", "_policy_on_fill")

    def __init__(self, size: int = 32 * 1024, ways: int = 8,
                 block_size: int = 16, latency: int = 4,
                 mshr_entries: int = 8, buffer_entries: int = 16) -> None:
        if block_size not in (16, 32):
            raise ConfigurationError("small-block cache supports 16B or 32B")
        if size % (ways * block_size):
            raise ConfigurationError("size not divisible by ways*block")
        super().__init__(latency, mshr_entries)
        self.size = size
        self.ways = ways
        self.block_size = block_size
        self.sets = size // (ways * block_size)
        if self.sets & (self.sets - 1):
            raise ConfigurationError("set count must be a power of two")
        self._offset_bits = block_size.bit_length() - 1
        self._index_mask = self.sets - 1
        # LRU keeps ReplacementPolicy's no-op note_miss and on_evict, so
        # a miss or an eviction calls no policy hook.
        self.policy = LRUPolicy(self.sets, self.ways)
        self._policy_on_hit = self.policy.on_hit
        self._policy_victim = self.policy.victim
        self._policy_on_fill = self.policy.on_fill
        self._tags: List[List[Optional[int]]] = [
            [None] * ways for _ in range(self.sets)
        ]
        self._accessed: List[List[int]] = [[0] * ways for _ in range(self.sets)]
        # Resident small-block count; once installed a way's accessed mask
        # is always the full block mask, so the storage snapshot reduces to
        # ``resident * block_size`` for both fields.
        self._resident = 0
        # FIFO buffer of whole 64-byte blocks awaiting chunk promotion.
        self._buffer: "OrderedDict[int, bool]" = OrderedDict()
        self._buffer_capacity = buffer_entries
        self.buffer_hits = 0

    # -- interface --------------------------------------------------------------

    def lookup(self, addr: int, nbytes: int) -> MissKind:
        if (addr + nbytes - 1) >> 6 != addr >> 6:
            raise SimulationError("fetch range crosses a 64B boundary")
        offset_bits = self._offset_bits
        index_mask = self._index_mask
        all_tags = self._tags
        missing = []
        present = []
        first = addr >> offset_bits
        last = (addr + nbytes - 1) >> offset_bits
        for sb in range(first, last + 1):
            set_idx = sb & index_mask
            tags = all_tags[set_idx]
            if sb in tags:
                present.append((sb, set_idx, tags.index(sb)))
            else:
                missing.append(sb)
        if not missing:
            self.hits += 1
            full_mask = (1 << self.block_size) - 1
            on_hit = self._policy_on_hit
            accessed = self._accessed
            for sb, set_idx, way in present:
                on_hit(set_idx, way, sb << offset_bits)
                accessed[set_idx][way] = full_mask
            return _HIT

        if addr >> 6 in self._buffer:
            # Promote only the requested chunks out of the 64B buffer entry.
            self.buffer_hits += 1
            self.hits += 1
            for sb in missing:
                self._install_chunk(sb)
            on_hit = self._policy_on_hit
            for sb, set_idx, way in present:
                on_hit(set_idx, way, sb << offset_bits)
            return _HIT

        self.misses += 1
        return _FULL_MISS

    def _install_chunk(self, small_block: int) -> None:
        set_idx = small_block & self._index_mask
        tags = self._tags[set_idx]
        if small_block in tags:
            return
        if None in tags:
            way = tags.index(None)
            self._resident += 1
        else:
            way = self._policy_victim(set_idx)
            if self.recording:
                # Byte-usage accounting at the small-block granularity.
                self.byte_usage.add(
                    min(self._accessed[set_idx][way].bit_count(),
                        self.byte_usage.block_size)
                )
        tags[way] = small_block
        self._accessed[set_idx][way] = (1 << self.block_size) - 1
        self._policy_on_fill(set_idx, way, small_block << self._offset_bits)

    def fill(self, block_addr: int, prefetch: bool = False) -> None:
        """A 64-byte block arrived from L2: it goes to the fill buffer."""
        self._buffer[block_addr >> 6] = True
        self._buffer.move_to_end(block_addr >> 6)
        while len(self._buffer) > self._buffer_capacity:
            self._buffer.popitem(last=False)

    def probe_range(self, addr: int, nbytes: int) -> bool:
        if addr >> 6 in self._buffer:
            return True
        offset_bits = self._offset_bits
        index_mask = self._index_mask
        all_tags = self._tags
        for sb in range(addr >> offset_bits,
                        ((addr + nbytes - 1) >> offset_bits) + 1):
            if sb not in all_tags[sb & index_mask]:
                return False
        return True

    def storage_snapshot(self) -> Tuple[int, int]:
        stored = self._resident * self.block_size
        return stored, stored

    def block_count(self) -> int:
        return self._resident
