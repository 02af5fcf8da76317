"""Replacement policies for the L1-I models.

Policies are per-cache-instance objects holding per-set state. The cache
calls the hooks below; a policy never touches cache arrays directly, so the
same implementations serve the conventional and small-block L1-Is, the
distillation cache and (through the restricted-candidate variant) the UBS
cache. The L1-D, L2 and L3 are LRU (:class:`~repro.memory.cache.Cache`).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from ..errors import ConfigurationError


class ReplacementPolicy:
    """Interface every policy implements.

    ``way`` indices are cache-internal; ``addr`` is the 64-byte-aligned
    block address, available for history-based policies.
    """

    __slots__ = ("sets", "ways")

    def __init__(self, sets: int, ways: int) -> None:
        if sets <= 0 or ways <= 0:
            raise ConfigurationError("sets and ways must be positive")
        self.sets = sets
        self.ways = ways

    def on_hit(self, set_idx: int, way: int, addr: int) -> None:
        """A lookup hit ``way`` of ``set_idx``."""

    def on_fill(self, set_idx: int, way: int, addr: int) -> None:
        """A block was installed into ``way`` of ``set_idx``."""

    def on_evict(self, set_idx: int, way: int, addr: int,
                 was_reused: bool) -> None:
        """The block in ``way`` was evicted (``was_reused``: hit at least
        once after fill). History-based policies train on this."""

    def victim(self, set_idx: int,
               candidates: Optional[Sequence[int]] = None) -> int:
        """Pick a victim way; ``candidates`` restricts the choice (the UBS
        modified-LRU only considers four ways, Section IV-F)."""
        raise NotImplementedError

    def should_admit(self, addr: int, set_idx: int) -> bool:
        """Admission control hook (ACIC-style policies may veto a fill)."""
        return True

    def note_miss(self, addr: int, set_idx: int) -> None:
        """Called on every miss, before the fill decision."""


class LRUPolicy(ReplacementPolicy):
    """Classic least-recently-used via monotonic timestamps."""

    __slots__ = ("_clock", "_stamp")

    def __init__(self, sets: int, ways: int) -> None:
        super().__init__(sets, ways)
        self._clock = 0
        self._stamp: List[List[int]] = [[-1] * ways for _ in range(sets)]

    def _touch(self, set_idx: int, way: int) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def on_hit(self, set_idx: int, way: int, addr: int) -> None:
        clock = self._clock + 1
        self._clock = clock
        self._stamp[set_idx][way] = clock

    def on_fill(self, set_idx: int, way: int, addr: int) -> None:
        clock = self._clock + 1
        self._clock = clock
        self._stamp[set_idx][way] = clock

    def victim(self, set_idx: int,
               candidates: Optional[Sequence[int]] = None) -> int:
        stamps = self._stamp[set_idx]
        if candidates is None:
            return stamps.index(min(stamps))
        return min(candidates, key=stamps.__getitem__)


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: fill order only, hits do not refresh."""

    __slots__ = ("_clock", "_stamp")

    def __init__(self, sets: int, ways: int) -> None:
        super().__init__(sets, ways)
        self._clock = 0
        self._stamp: List[List[int]] = [[-1] * ways for _ in range(sets)]

    def on_fill(self, set_idx: int, way: int, addr: int) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def victim(self, set_idx: int,
               candidates: Optional[Sequence[int]] = None) -> int:
        stamps = self._stamp[set_idx]
        pool = range(self.ways) if candidates is None else candidates
        return min(pool, key=stamps.__getitem__)


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim (seeded for reproducibility)."""

    def __init__(self, sets: int, ways: int, seed: int = 0xC0FFEE) -> None:
        super().__init__(sets, ways)
        self._rng = random.Random(seed)

    def victim(self, set_idx: int,
               candidates: Optional[Sequence[int]] = None) -> int:
        pool = list(range(self.ways)) if candidates is None else list(candidates)
        return pool[self._rng.randrange(len(pool))]


def overridden_hook(policy: ReplacementPolicy,
                    name: str) -> Optional[Callable[..., object]]:
    """``policy``'s bound ``name`` hook (``note_miss``, ``should_admit`` or
    ``on_evict``), or None when its class keeps the
    :class:`ReplacementPolicy` default, so a cache calls the hook only for
    the policies that use it."""
    if getattr(type(policy), name) is getattr(ReplacementPolicy, name):
        return None
    return getattr(policy, name)


def make_policy(name: str, sets: int, ways: int) -> ReplacementPolicy:
    """Instantiate a policy by configuration name."""
    from .ghrp import GHRPPolicy
    from .acic import ACICFilter
    from .srrip import DRRIPPolicy, SRRIPPolicy

    table = {
        "lru": LRUPolicy,
        "fifo": FIFOPolicy,
        "random": RandomPolicy,
        "ghrp": GHRPPolicy,
        "acic": ACICFilter,
        "srrip": SRRIPPolicy,
        "drrip": DRRIPPolicy,
    }
    try:
        return table[name](sets, ways)
    except KeyError as exc:
        raise ConfigurationError(f"unknown replacement policy {name!r}") from exc
