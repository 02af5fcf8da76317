"""An ideal (always-hit) instruction cache.

Reference point for headroom analysis: with a perfect L1-I every cycle
the baseline loses to instruction-cache misses is recovered, so the gap
between ``conv32`` and ``ideal`` bounds what any L1-I organisation —
UBS included — can possibly gain.
"""

from __future__ import annotations

from typing import Tuple

from ..params import TRANSFER_BLOCK
from .icache import InstructionCacheBase, MissKind


class IdealICache(InstructionCacheBase):
    """Every lookup hits; storage metrics report perfect efficiency."""

    def __init__(self, latency: int = 4, mshr_entries: int = 8) -> None:
        super().__init__(latency, mshr_entries)
        self._bytes_seen = 0

    def lookup(self, addr: int, nbytes: int) -> MissKind:
        self.hits += 1
        self._bytes_seen += nbytes
        return MissKind.HIT

    def fill(self, block_addr: int, prefetch: bool = False) -> None:
        """Never called in practice (no misses); accepted for interface
        compatibility."""

    def probe_range(self, addr: int, nbytes: int) -> bool:
        return True

    def storage_snapshot(self) -> Tuple[int, int]:
        return (TRANSFER_BLOCK, TRANSFER_BLOCK)

    def block_count(self) -> int:
        return 0
