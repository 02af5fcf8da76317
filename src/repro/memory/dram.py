"""A simple open-page DRAM timing model (Table I).

Single channel, one rank, eight banks. Each bank remembers its open row;
an access to the open row pays tCAS, anything else pays precharge +
activate + CAS. All timings are expressed in core cycles (see
:class:`~repro.params.DramParams`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..params import DramParams
from ..telemetry.events import DRAM_ROW, NULL_RECORDER


class DRAM:
    """Open-page DRAM latency model."""

    __slots__ = ("params", "_open_rows", "row_hits", "row_misses",
                 "_channel_free", "_telemetry", "_tel_enabled",
                 "_row_size", "_banks", "_row_hit_latency",
                 "_row_miss_latency", "_bus_cycles")

    def __init__(self, params: Optional[DramParams] = None) -> None:
        self.params = params or DramParams()
        p = self.params
        self._open_rows: List[Optional[int]] = [None] * p.banks
        self.row_hits = 0
        self.row_misses = 0
        # The channel is busy until this cycle; requests serialise on it.
        self._channel_free = 0
        # Timing parameters, hoisted out of the per-access hot path.
        self._row_size = p.row_size
        self._banks = p.banks
        self._row_hit_latency = p.row_hit_latency
        self._row_miss_latency = p.row_miss_latency
        self._bus_cycles = p.bus_cycles
        self.telemetry = NULL_RECORDER

    @property
    def telemetry(self):
        return self._telemetry

    @telemetry.setter
    def telemetry(self, recorder) -> None:
        # ``access`` tests one cached boolean instead of two attribute
        # loads per call; recorders never flip ``enabled`` after creation.
        self._telemetry = recorder
        self._tel_enabled = recorder.enabled

    def access(self, addr: int, cycle: int) -> int:
        """Latency (cycles from ``cycle``) to read the block at ``addr``."""
        row_addr = addr // self._row_size
        bank = row_addr % self._banks
        row = row_addr // self._banks
        open_rows = self._open_rows
        if open_rows[bank] == row:
            self.row_hits += 1
            hit = True
            service = self._row_hit_latency
        else:
            self.row_misses += 1
            hit = False
            service = self._row_miss_latency
            open_rows[bank] = row
        channel_free = self._channel_free
        start = cycle if cycle >= channel_free else channel_free
        # The data bus is occupied for the burst; subsequent requests queue.
        self._channel_free = start + self._bus_cycles
        if self._tel_enabled:
            self._telemetry.emit(DRAM_ROW, cycle, hit=hit, bank=bank,
                                 queued=start - cycle)
        return (start - cycle) + service

    @property
    def accesses(self) -> int:
        return self.row_hits + self.row_misses

    def metrics(self, prefix: str = "dram") -> Dict[str, int]:
        """Row-buffer counters under ``prefix``."""
        return {f"{prefix}.row_hits": self.row_hits,
                f"{prefix}.row_misses": self.row_misses,
                f"{prefix}.accesses": self.accesses}

    def reset_stats(self) -> None:
        self.row_hits = 0
        self.row_misses = 0
