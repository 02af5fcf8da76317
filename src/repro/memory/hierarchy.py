"""Cache hierarchy below the L1-I: L1-D, shared L2, L3 and DRAM.

The hierarchy answers these questions for the machine model:

* ``fetch_block(addr, cycle)`` — latency to bring an instruction block
  from L2/L3/DRAM (the L1-I itself, conventional or UBS, lives in the
  front-end and calls this on its misses).
* ``data_load_miss(addr, cycle)`` / ``data_store_miss(addr, cycle)`` —
  a load's completion latency, or a store's background write-allocate,
  after the back-end's own ``l1d.touch`` missed (co-runs share this live
  L1-D).
* ``_below_l1(addr, cycle)`` — the levels below the L1s alone: the path
  of a one-thread core, whose L1-D hits and misses are replayed into its
  op table ahead of the run.

Instructions and data share L2 and L3, so data traffic pollutes the levels
that back up the L1-I exactly as in ChampSim.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..params import MachineParams
from .cache import Cache
from .dram import DRAM


class MemoryHierarchy:
    """L1-D + L2 + L3 + DRAM with additive latency composition."""

    __slots__ = ("params", "l1d", "l2", "l3", "dram", "instr_fetches",
                 "_l1d_latency", "_l2_latency", "_l3_latency", "_l1d_fill",
                 "_l2_sets", "_l2_shift", "_l2_mask", "_l2_ways",
                 "_l3_sets", "_l3_shift", "_l3_mask", "_l3_ways",
                 "_dram_access")

    def __init__(self, params: Optional[MachineParams] = None) -> None:
        params = params or MachineParams()
        self.params = params
        self.l1d = Cache(params.l1d)
        self.l2 = Cache(params.l2)
        self.l3 = Cache(params.l3)
        self.dram = DRAM(params.dram)
        self.instr_fetches = 0
        # Per-level latencies, geometry and set dicts, hoisted out of the
        # per-access hot path.
        self._l1d_latency = params.l1d.latency
        self._l2_latency = params.l2.latency
        self._l3_latency = params.l3.latency
        self._l1d_fill = self.l1d.fill
        self._l2_sets = self.l2.blocks
        self._l2_shift = self.l2.offset_bits
        self._l2_mask = self.l2.index_mask
        self._l2_ways = self.l2.ways
        self._l3_sets = self.l3.blocks
        self._l3_shift = self.l3.offset_bits
        self._l3_mask = self.l3.index_mask
        self._l3_ways = self.l3.ways
        self._dram_access = self.dram.access

    # -- shared levels -----------------------------------------------------------

    def _below_l1(self, addr: int, cycle: int) -> int:
        """Latency of servicing a block request that missed in an L1.

        L2 and L3 are walked inline on their LRU set dicts (see
        :class:`~repro.memory.cache.Cache`): a hit moves the block to the
        end, a miss fills it at the end, evicting the first block of a
        full set. A block that missed a level is not in it, so its fill
        is never a merged one.
        """
        block2 = addr >> self._l2_shift
        set2 = self._l2_sets[block2 & self._l2_mask]
        if block2 in set2:
            del set2[block2]
            set2[block2] = None
            self.l2.hits += 1
            return self._l2_latency
        self.l2.misses += 1
        latency = self._l2_latency + self._l3_latency
        block3 = addr >> self._l3_shift
        set3 = self._l3_sets[block3 & self._l3_mask]
        if block3 in set3:
            del set3[block3]
            self.l3.hits += 1
        else:
            self.l3.misses += 1
            latency += self._dram_access(addr, cycle + latency)
            if len(set3) == self._l3_ways:
                del set3[next(iter(set3))]
        set3[block3] = None
        if len(set2) == self._l2_ways:
            del set2[next(iter(set2))]
        set2[block2] = None
        return latency

    # -- instruction side ----------------------------------------------------------

    def fetch_block(self, addr: int, cycle: int) -> int:
        """Latency to deliver the 64-byte block at ``addr`` to the L1-I."""
        self.instr_fetches += 1
        return self._below_l1(addr, cycle)

    # -- data side -------------------------------------------------------------------

    # Miss continuations for the back-end delivery loop, which does the
    # L1-D hit check itself.

    def data_load_miss(self, addr: int, cycle: int) -> int:
        """Load completion latency when the L1-D touch already missed."""
        latency = self._l1d_latency
        latency += self._below_l1(addr, cycle + latency)
        self._l1d_fill(addr)
        return latency

    def data_store_miss(self, addr: int, cycle: int) -> None:
        """Background write-allocate when the L1-D touch already missed:
        the store retires without waiting for the fill."""
        self._below_l1(addr, cycle)
        self._l1d_fill(addr)

    def metrics(self) -> Dict[str, int]:
        """Every shared level's counters."""
        out: Dict[str, int] = {}
        for name, cache in (("l1d", self.l1d), ("l2", self.l2),
                            ("l3", self.l3)):
            out[f"{name}.hits"] = cache.hits
            out[f"{name}.misses"] = cache.misses
        out.update(self.dram.metrics())
        out["hierarchy.instr_fetches"] = self.instr_fetches
        return out

    def reset_stats(self) -> None:
        for cache in (self.l1d, self.l2, self.l3):
            cache.reset_stats()
        self.dram.reset_stats()
        self.instr_fetches = 0
