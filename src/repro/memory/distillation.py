"""Line Distillation (Qureshi et al., HPCA'07) adapted to the L1-I.

The cache is split into a Line-Organised Cache (LOC) holding full 64-byte
blocks and a Word-Organised Cache (WOC) holding individual 4-byte words.
When a line is evicted from the LOC, the words that were actually accessed
are *distilled* into the WOC; a later access hits if the block is in the
LOC or if every requested word is present in the WOC.

At a 32 KB budget we assign 4 of the original 8 ways to the LOC and turn
the other 4 ways into per-set WOC word storage (64 word entries per set),
mirroring the half-and-half split of the original proposal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError, SimulationError
from ..params import TRANSFER_BLOCK
from .icache import InstructionCacheBase, MissKind
from .replacement import LRUPolicy

WORD = 4

_HIT = MissKind.HIT
_FULL_MISS = MissKind.FULL_MISS


class DistillationICache(InstructionCacheBase):
    """LOC + WOC instruction cache."""

    __slots__ = ("sets", "loc_ways", "woc_words_per_set", "_index_mask",
                 "policy", "_tags", "_accessed", "_woc",
                 "_woc_clock", "woc_hits", "_resident", "_used_bits",
                 "_woc_words", "_policy_on_hit", "_policy_victim",
                 "_policy_on_fill")

    def __init__(self, sets: int = 64, loc_ways: int = 4,
                 woc_words_per_set: int = 64, latency: int = 4,
                 mshr_entries: int = 8) -> None:
        if sets & (sets - 1):
            raise ConfigurationError("set count must be a power of two")
        super().__init__(latency, mshr_entries)
        self.sets = sets
        self.loc_ways = loc_ways
        self.woc_words_per_set = woc_words_per_set
        self._index_mask = sets - 1
        # LRU keeps ReplacementPolicy's no-op note_miss and on_evict, so
        # a miss or an eviction calls no policy hook.
        self.policy = LRUPolicy(sets, loc_ways)
        self._policy_on_hit = self.policy.on_hit
        self._policy_victim = self.policy.victim
        self._policy_on_fill = self.policy.on_fill
        self._tags: List[List[Optional[int]]] = [
            [None] * loc_ways for _ in range(sets)
        ]
        self._accessed: List[List[int]] = [[0] * loc_ways for _ in range(sets)]
        # WOC per set: (block, word_index) -> lru stamp
        self._woc: List[Dict[Tuple[int, int], int]] = [
            {} for _ in range(sets)
        ]
        self._woc_clock = 0
        self.woc_hits = 0
        # Incremental storage accounting (O(1) snapshots): resident LOC
        # lines, their accessed-byte population and total WOC word count.
        self._resident = 0
        self._used_bits = 0
        self._woc_words = 0

    # -- lookup -----------------------------------------------------------------

    def lookup(self, addr: int, nbytes: int) -> MissKind:
        block = addr >> 6
        if (addr + nbytes - 1) >> 6 != block:
            raise SimulationError("fetch range crosses a 64B boundary")
        set_idx = block & self._index_mask
        tags = self._tags[set_idx]
        if block in tags:
            way = tags.index(block)
            self.hits += 1
            self._policy_on_hit(set_idx, way, addr)
            masks = self._accessed[set_idx]
            old = masks[way]
            new = old | ((1 << nbytes) - 1) << (addr & (TRANSFER_BLOCK - 1))
            if new != old:
                masks[way] = new
                self._used_bits += new.bit_count() - old.bit_count()
            return _HIT

        woc = self._woc[set_idx]
        first = addr >> 2
        last = (addr + nbytes - 1) >> 2
        keys = [(block, w & 0xF) for w in range(first, last + 1)]
        for k in keys:
            if k not in woc:
                break
        else:
            self.hits += 1
            self.woc_hits += 1
            clock = self._woc_clock
            for k in keys:
                clock += 1
                woc[k] = clock
            self._woc_clock = clock
            return _HIT

        self.misses += 1
        return _FULL_MISS

    # -- fill / distillation ---------------------------------------------------------

    def fill(self, block_addr: int, prefetch: bool = False) -> None:
        block = block_addr >> 6
        set_idx = block & self._index_mask
        tags = self._tags[set_idx]
        if block in tags:
            return
        # Remove any distilled words of this block: the LOC copy supersedes
        # them (avoids double-counting storage).
        woc = self._woc[set_idx]
        stale = [k for k in woc if k[0] == block]
        for key in stale:
            del woc[key]
        self._woc_words -= len(stale)
        if None in tags:
            way = tags.index(None)
        else:
            way = self._policy_victim(set_idx)
            self._distill(set_idx, way)
        self._resident += 1
        tags[way] = block
        self._accessed[set_idx][way] = 0
        self._policy_on_fill(set_idx, way, block_addr)

    def _distill(self, set_idx: int, way: int) -> None:
        """Evict a LOC line, moving its accessed words into the WOC."""
        block = self._tags[set_idx][way]
        if block is None:
            return
        accessed = self._accessed[set_idx][way]
        if self.recording:
            self.byte_usage.add(accessed.bit_count())
        self._tags[set_idx][way] = None
        self._resident -= 1
        self._used_bits -= accessed.bit_count()
        if not accessed:
            return
        woc = self._woc[set_idx]
        before = len(woc)
        for word_idx in range(TRANSFER_BLOCK // WORD):
            word_mask = 0xF << (word_idx * WORD)
            if accessed & word_mask:
                self._woc_clock += 1
                woc[(block, word_idx)] = self._woc_clock
        while len(woc) > self.woc_words_per_set:
            victim = min(woc, key=woc.__getitem__)
            del woc[victim]
        self._woc_words += len(woc) - before

    # -- probes / snapshots -----------------------------------------------------------

    def probe_range(self, addr: int, nbytes: int) -> bool:
        block = addr >> 6
        set_idx = block & self._index_mask
        if block in self._tags[set_idx]:
            return True
        woc = self._woc[set_idx]
        for w in range(addr >> 2, ((addr + nbytes - 1) >> 2) + 1):
            if (block, w & 0xF) not in woc:
                return False
        return True

    def storage_snapshot(self) -> Tuple[int, int]:
        woc_bytes = self._woc_words * WORD
        return (self._used_bits + woc_bytes,
                self._resident * TRANSFER_BLOCK + woc_bytes)

    def block_count(self) -> int:
        woc_blocks = len({
            (s, k[0]) for s in range(self.sets) for k in self._woc[s]
        })
        return self._resident + woc_blocks
