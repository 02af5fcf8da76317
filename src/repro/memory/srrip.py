"""SRRIP and DRRIP replacement (Jaleel et al., ISCA 2010).

Static RRIP inserts blocks with a long re-reference interval prediction
and promotes on hit; Dynamic RRIP set-duels between SRRIP and a bimodal
insertion policy (BRRIP). Standard substrate policies included both for
completeness of the replacement library and as additional comparison
points for the Fig. 13 style analysis.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from .replacement import ReplacementPolicy

_RRPV_BITS = 2
_RRPV_MAX = (1 << _RRPV_BITS) - 1          # 3: distant future
_RRPV_LONG = _RRPV_MAX - 1                 # 2: long interval (SRRIP insert)


class SRRIPPolicy(ReplacementPolicy):
    """Static RRIP with 2-bit re-reference prediction values."""

    def __init__(self, sets: int, ways: int) -> None:
        super().__init__(sets, ways)
        self._rrpv: List[List[int]] = [
            [_RRPV_MAX] * ways for _ in range(sets)
        ]

    def on_hit(self, set_idx: int, way: int, addr: int) -> None:
        self._rrpv[set_idx][way] = 0            # hit promotion

    def on_fill(self, set_idx: int, way: int, addr: int) -> None:
        self._rrpv[set_idx][way] = self._insertion_rrpv(addr, set_idx)

    def _insertion_rrpv(self, addr: int, set_idx: int) -> int:
        return _RRPV_LONG

    def victim(self, set_idx: int,
               candidates: Optional[Sequence[int]] = None) -> int:
        pool = list(range(self.ways)) if candidates is None \
            else list(candidates)
        rrpv = self._rrpv[set_idx]
        while True:
            for way in pool:
                if rrpv[way] >= _RRPV_MAX:
                    return way
            for way in pool:                    # age the pool
                rrpv[way] += 1


class DRRIPPolicy(SRRIPPolicy):
    """Dynamic RRIP: set-duelling between SRRIP and BRRIP insertion."""

    def __init__(self, sets: int, ways: int, *,
                 duel_sets: int = 4, seed: int = 0xD4E1) -> None:
        super().__init__(sets, ways)
        self._rng = random.Random(seed)
        stride = max(1, sets // max(1, duel_sets))
        self._srrip_sets = set(range(0, sets, stride))
        self._brrip_sets = set(
            s + stride // 2 for s in range(0, sets, stride)
        ) - self._srrip_sets
        # A leader's miss counts against its policy: SRRIP leaders lower
        # PSEL, BRRIP leaders raise it, and followers take BRRIP while
        # PSEL < 0 (the SRRIP leaders miss more).
        self._psel = 0
        self._psel_max = 1 << 9

    def note_miss(self, addr: int, set_idx: int) -> None:
        if set_idx in self._srrip_sets:
            self._psel = max(-self._psel_max, self._psel - 1)
        elif set_idx in self._brrip_sets:
            self._psel = min(self._psel_max, self._psel + 1)

    def _insertion_rrpv(self, addr: int, set_idx: int) -> int:
        if set_idx in self._srrip_sets:
            use_brrip = False
        elif set_idx in self._brrip_sets:
            use_brrip = True
        else:
            use_brrip = self._psel < 0
        if use_brrip:
            # BRRIP: mostly distant, occasionally long.
            return _RRPV_LONG if self._rng.random() < (1 / 32) else _RRPV_MAX
        return _RRPV_LONG
