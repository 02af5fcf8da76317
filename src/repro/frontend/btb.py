"""Branch Target Buffer: 4K entries, set-associative, LRU."""

from __future__ import annotations

from typing import List, Optional

from ..params import BranchParams


class BTB:
    """Set-associative BTB storing branch targets."""

    __slots__ = ("ways", "sets", "_index_mask", "_tags", "_targets",
                 "_stamp", "_clock", "hits", "misses")

    def __init__(self, params: BranchParams = BranchParams()) -> None:
        self.ways = params.btb_ways
        self.sets = params.btb_entries // params.btb_ways
        self._index_mask = self.sets - 1
        self._tags: List[List[Optional[int]]] = [
            [None] * self.ways for _ in range(self.sets)
        ]
        self._targets: List[List[int]] = [
            [0] * self.ways for _ in range(self.sets)
        ]
        self._stamp: List[List[int]] = [
            [-1] * self.ways for _ in range(self.sets)
        ]
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def lookup(self, pc: int) -> Optional[int]:
        """Target stored for the branch at ``pc`` (None on BTB miss)."""
        tag = pc >> 2
        set_idx = tag & self._index_mask
        try:
            way = self._tags[set_idx].index(tag)
        except ValueError:
            self.misses += 1
            return None
        self.hits += 1
        clock = self._clock + 1
        self._clock = clock
        self._stamp[set_idx][way] = clock
        return self._targets[set_idx][way]

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the target for the branch at ``pc``."""
        tag = pc >> 2
        set_idx = tag & self._index_mask
        try:
            way = self._tags[set_idx].index(tag)
        except ValueError:
            stamps = self._stamp[set_idx]
            way = stamps.index(min(stamps))
            self._tags[set_idx][way] = tag
        self._targets[set_idx][way] = target
        clock = self._clock + 1
        self._clock = clock
        self._stamp[set_idx][way] = clock
