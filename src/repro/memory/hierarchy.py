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

from typing import Optional

from ..params import MachineParams
from .cache import Cache
from .dram import DRAM


class MemoryHierarchy:
    """L1-D + L2 + L3 + DRAM with additive latency composition."""

    __slots__ = ("params", "l1d", "l2", "l3", "dram", "instr_fetches",
                 "_l1d_latency", "_l2_latency", "_l3_latency",
                 "_l1d_fill", "_l2_touch", "_l2_fill",
                 "_l3_touch", "_l3_fill", "_dram_access")

    def __init__(self, params: Optional[MachineParams] = None) -> None:
        params = params or MachineParams()
        self.params = params
        self.l1d = Cache(params.l1d)
        self.l2 = Cache(params.l2)
        self.l3 = Cache(params.l3)
        self.dram = DRAM(params.dram)
        self.instr_fetches = 0
        # Per-level latencies and entry points, hoisted out of the
        # per-access hot path.
        self._l1d_latency = params.l1d.latency
        self._l2_latency = params.l2.latency
        self._l3_latency = params.l3.latency
        self._l1d_fill = self.l1d.fill
        self._l2_touch = self.l2.touch
        self._l2_fill = self.l2.fill
        self._l3_touch = self.l3.touch
        self._l3_fill = self.l3.fill
        self._dram_access = self.dram.access

    # -- shared levels -----------------------------------------------------------

    def _below_l1(self, addr: int, cycle: int) -> int:
        """Latency of servicing a block request that missed in an L1."""
        latency = self._l2_latency
        if self._l2_touch(addr):
            return latency
        latency += self._l3_latency
        if self._l3_touch(addr):
            self._l2_fill(addr)
            return latency
        latency += self._dram_access(addr, cycle + latency)
        self._l3_fill(addr)
        self._l2_fill(addr)
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

    def register_metrics(self, registry) -> None:
        """Register every shared level's counters into ``registry``."""
        for name, cache in (("l1d", self.l1d), ("l2", self.l2),
                            ("l3", self.l3)):
            registry.gauge(f"{name}.hits", lambda c=cache: c.hits)
            registry.gauge(f"{name}.misses", lambda c=cache: c.misses)
        self.dram.register_metrics(registry)
        registry.gauge("hierarchy.instr_fetches",
                       lambda: self.instr_fetches)

    def reset_stats(self) -> None:
        for cache in (self.l1d, self.l2, self.l3):
            cache.reset_stats()
        self.dram.reset_stats()
        self.instr_fetches = 0
