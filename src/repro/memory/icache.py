"""Instruction-cache interface and the conventional baseline L1-I.

All L1-I variants (conventional, small-block, distillation, UBS) implement
:class:`InstructionCacheBase`, so the fetch engine and FDIP are agnostic to
the cache organisation. Lookups are *fetch ranges* — a start byte address
plus a byte count, never crossing a 64-byte transfer-block boundary — the
interface Section IV-A introduces (and which degenerates to block lookup
for conventional caches).

The conventional cache carries the instrumentation behind the motivation
figures: per-block accessed-byte bit-vectors (Fig. 1 byte-usage histogram
and Fig. 2 storage-efficiency sampling) and first-touch distance tracking
(Fig. 4).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError, SimulationError
from ..params import CacheParams, TRANSFER_BLOCK
from ..stats.histograms import ByteUsageHistogram, TouchDistanceStats
from ..telemetry.events import NULL_RECORDER
from .replacement import ReplacementPolicy, make_policy, overridden_hook


class MissKind(IntEnum):
    """Lookup outcomes; the partial kinds only occur for UBS (Fig. 5/6)."""

    HIT = 0
    FULL_MISS = 1
    MISSING_SUBBLOCK = 2
    OVERRUN = 3
    UNDERRUN = 4


_HIT = MissKind.HIT
_FULL_MISS = MissKind.FULL_MISS


class InstructionCacheBase:
    """Interface shared by every L1-I organisation."""

    __slots__ = ("latency", "mshr_entries", "hits", "misses", "recording",
                 "byte_usage", "touch_distance", "_telemetry",
                 "_tel_enabled", "now")

    def __init__(self, latency: int, mshr_entries: int) -> None:
        self.latency = latency
        self.mshr_entries = mshr_entries
        self.hits = 0
        self.misses = 0
        self.recording = True
        self.byte_usage = ByteUsageHistogram()
        self.touch_distance = TouchDistanceStats()
        # Event recorder attached by the machine when tracing is on, and
        # the fill-time cycle stamp it maintains for fill-side events.
        self.telemetry = NULL_RECORDER
        self.now = 0

    @property
    def telemetry(self):
        return self._telemetry

    @telemetry.setter
    def telemetry(self, recorder) -> None:
        # Hot paths test the cached ``_tel_enabled`` boolean instead of two
        # attribute loads; recorders never flip ``enabled`` after creation.
        self._telemetry = recorder
        self._tel_enabled = recorder.enabled

    # -- interface -------------------------------------------------------------

    def lookup(self, addr: int, nbytes: int) -> MissKind:
        """Demand access for ``nbytes`` starting at ``addr`` (within one
        transfer block). Updates replacement/accessed state; on a miss
        the caller fills the block at ``addr & -TRANSFER_BLOCK``."""
        raise NotImplementedError

    def fill(self, block_addr: int, prefetch: bool = False) -> None:
        """Install the 64-byte block that arrived from the lower levels."""
        raise NotImplementedError

    def probe_range(self, addr: int, nbytes: int) -> bool:
        """Presence check without side effects (used by FDIP)."""
        raise NotImplementedError

    def storage_snapshot(self) -> Tuple[int, int]:
        """(used_bytes, stored_bytes) over the current contents."""
        raise NotImplementedError

    def block_count(self) -> int:
        """Number of valid blocks currently resident."""
        raise NotImplementedError

    def metrics(self, prefix: str = "l1i") -> Dict[str, int]:
        """Hit/miss/content counters under ``prefix``."""
        return {f"{prefix}.hits": self.hits,
                f"{prefix}.misses": self.misses,
                f"{prefix}.accesses": self.accesses,
                f"{prefix}.blocks": self.block_count()}

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.byte_usage = ByteUsageHistogram()
        self.touch_distance = TouchDistanceStats()

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class ConventionalICache(InstructionCacheBase):
    """The baseline fixed-block-size L1-I (32 KB, 8-way, LRU by default)."""

    __slots__ = ("params", "sets", "ways", "_index_mask", "policy",
                 "track_touch_distance", "_bypass", "_bypass_capacity",
                 "_tags", "_accessed", "_reused", "_set_misses",
                 "_insert_miss", "_touch", "_policy_on_hit",
                 "_policy_note_miss", "_policy_should_admit",
                 "_policy_on_evict", "_resident", "_used_bits")

    def __init__(self, params: Optional[CacheParams] = None,
                 policy: Optional[ReplacementPolicy] = None,
                 track_touch_distance: bool = False) -> None:
        if params is None:
            params = CacheParams(name="L1I", size=32 * 1024, ways=8,
                                 latency=4, mshr_entries=8)
        if params.block_size != TRANSFER_BLOCK:
            raise ConfigurationError(
                "ConventionalICache models 64-byte blocks; use "
                "SmallBlockICache for other block sizes"
            )
        super().__init__(params.latency, params.mshr_entries)
        self.params = params
        self.sets = params.sets
        self.ways = params.ways
        self._index_mask = self.sets - 1
        self.policy = policy or make_policy(params.replacement,
                                            self.sets, self.ways)
        self._policy_on_hit = self.policy.on_hit
        # None unless the policy overrides the no-op default (ACIC's
        # admission filter, DRRIP's set duel): LRU pays no call per miss.
        self._policy_note_miss = overridden_hook(self.policy, "note_miss")
        self._policy_should_admit = overridden_hook(self.policy,
                                                    "should_admit")
        # Likewise None unless the policy learns from evictions (GHRP's
        # dead-block training, ACIC's filter).
        self._policy_on_evict = overridden_hook(self.policy, "on_evict")
        self.track_touch_distance = track_touch_distance
        # Incremental storage accounting so ``storage_snapshot`` (called on
        # every efficiency sample) is O(1) instead of a full-array walk.
        self._resident = 0
        self._used_bits = 0

        n = self.sets
        w = self.ways
        # Non-admitted (bypassed) blocks are served from a tiny stream
        # buffer instead of the cache array (read-around, as admission-
        # controlled designs like ACIC do).
        self._bypass: List[int] = []
        self._bypass_capacity = 4
        self._tags: List[List[Optional[int]]] = [[None] * w for _ in range(n)]
        self._accessed: List[List[int]] = [[0] * w for _ in range(n)]
        self._reused: List[List[bool]] = [[False] * w for _ in range(n)]
        self._set_misses: List[int] = [0] * n
        self._insert_miss: List[List[int]] = [[0] * w for _ in range(n)]
        # bytes first touched at set-miss-delta d (d in 0..3, 4 = later)
        self._touch: List[List[List[int]]] = [
            [[0] * 5 for _ in range(w)] for _ in range(n)
        ]

    # -- lookup ---------------------------------------------------------------

    def lookup(self, addr: int, nbytes: int) -> MissKind:
        block = addr >> 6
        if (addr + nbytes - 1) >> 6 != block:
            raise SimulationError(
                f"fetch range {addr:#x}+{nbytes} crosses a block boundary"
            )
        set_idx = block & self._index_mask
        tags = self._tags[set_idx]
        if block not in tags:
            if block in self._bypass:
                self.hits += 1
                return _HIT
            self.misses += 1
            self._set_misses[set_idx] += 1
            note_miss = self._policy_note_miss
            if note_miss is not None:
                note_miss(addr, set_idx)
            return _FULL_MISS

        way = tags.index(block)
        self.hits += 1
        self._policy_on_hit(set_idx, way, addr)
        # Inlined _mark(set_idx, way, addr - block_addr, nbytes): the hit
        # path is the hottest code in a conventional-cache simulation.
        mask = ((1 << nbytes) - 1) << (addr & (TRANSFER_BLOCK - 1))
        accessed = self._accessed[set_idx]
        prev = accessed[way]
        if mask & prev:
            self._reused[set_idx][way] = True
        new_bits = mask & ~prev
        if new_bits:
            accessed[way] = prev | mask
            self._used_bits += new_bits.bit_count()
            if self.track_touch_distance:
                delta = (self._set_misses[set_idx]
                         - self._insert_miss[set_idx][way])
                bucket = delta if delta < 4 else 4
                self._touch[set_idx][way][bucket] += new_bits.bit_count()
        return _HIT

    def _mark(self, set_idx: int, way: int, offset: int, nbytes: int) -> None:
        mask = ((1 << nbytes) - 1) << offset
        prev = self._accessed[set_idx][way]
        # "Reuse" means re-fetching bytes that were already fetched during
        # this residency (a revisit or loop) — the initial fetch burst
        # after a fill touches only fresh bytes and is not reuse. This is
        # the signal dead-block policies (GHRP/ACIC) train on.
        if mask & prev:
            self._reused[set_idx][way] = True
        new_bits = mask & ~prev
        if not new_bits:
            return
        self._accessed[set_idx][way] = prev | mask
        self._used_bits += new_bits.bit_count()
        if self.track_touch_distance:
            delta = self._set_misses[set_idx] - self._insert_miss[set_idx][way]
            bucket = delta if delta < 4 else 4
            self._touch[set_idx][way][bucket] += new_bits.bit_count()

    # -- fill / eviction -----------------------------------------------------------

    def fill(self, block_addr: int, prefetch: bool = False) -> None:
        block = block_addr >> 6
        set_idx = block & self._index_mask
        admit = self._policy_should_admit
        if admit is not None and not admit(block_addr, set_idx):
            if block not in self._bypass:
                self._bypass.append(block)
                if len(self._bypass) > self._bypass_capacity:
                    self._bypass.pop(0)
            return
        tags = self._tags[set_idx]
        if block in tags:
            return  # lost race with a merged fill
        if None in tags:
            way = tags.index(None)
        else:
            way = self.policy.victim(set_idx)
            self._evict(set_idx, way)
        tags[way] = block
        self._resident += 1
        self._accessed[set_idx][way] = 0
        self._reused[set_idx][way] = False
        self._insert_miss[set_idx][way] = self._set_misses[set_idx]
        if self.track_touch_distance:
            self._touch[set_idx][way] = [0] * 5
        self.policy.on_fill(set_idx, way, block_addr)

    def _evict(self, set_idx: int, way: int) -> None:
        old = self._tags[set_idx][way]
        if old is None:
            return
        accessed = self._accessed[set_idx][way]
        if self.recording:
            used = accessed.bit_count()
            self.byte_usage.add(used)
            if self.track_touch_distance and used:
                self.touch_distance.add(self._touch[set_idx][way][:4], used)
        on_evict = self._policy_on_evict
        if on_evict is not None:
            on_evict(set_idx, way, old << 6, self._reused[set_idx][way])
        self._tags[set_idx][way] = None
        self._resident -= 1
        self._used_bits -= accessed.bit_count()

    def invalidate(self, block_addr: int) -> bool:
        block = block_addr >> 6
        set_idx = block & self._index_mask
        tags = self._tags[set_idx]
        if block not in tags:
            return False
        self._evict(set_idx, tags.index(block))
        return True

    # -- probes and snapshots -------------------------------------------------------

    def probe_range(self, addr: int, nbytes: int) -> bool:
        block = addr >> 6
        if block in self._bypass:
            return True
        return block in self._tags[block & self._index_mask]

    def storage_snapshot(self) -> Tuple[int, int]:
        return self._used_bits, self._resident * TRANSFER_BLOCK

    def block_count(self) -> int:
        return sum(1 for tags in self._tags for t in tags if t is not None)

    def flush_residents_into_stats(self) -> None:
        """Account still-resident blocks as if evicted (end-of-run option)."""
        for set_idx in range(self.sets):
            for way in range(self.ways):
                if self._tags[set_idx][way] is not None:
                    self._evict(set_idx, way)
