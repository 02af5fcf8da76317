"""Deeper Line-Distillation behaviours: WOC LRU, cross-set isolation."""

from repro.memory.distillation import DistillationICache
from repro.memory.icache import MissKind


def fill_and_use(ic, block, nbytes=8):
    addr = block * ic.sets * 64 * 0 + (block << 6)
    res = ic.lookup(addr, nbytes)
    if res is not MissKind.HIT:
        ic.fill(addr)
        ic.lookup(addr, nbytes)


class TestWOCLRU:
    def test_woc_evicts_least_recent_words(self):
        ic = DistillationICache(sets=1, loc_ways=1, woc_words_per_set=4)
        # Distil block A's two words, then block B's two words.
        ic.fill(0 << 6)
        ic.lookup(0 << 6, 8)
        ic.fill(1 << 6)              # evicts A -> words distilled
        ic.lookup(1 << 6, 8)
        ic.fill(2 << 6)              # evicts B -> words distilled (4 total)
        assert len(ic._woc[0]) == 4
        # Touch A's words so B's become LRU, then distil 2 more.
        assert ic.lookup(0 << 6, 8) is MissKind.HIT
        ic.lookup(2 << 6, 8)
        ic.fill(3 << 6)              # evicts C(2) -> pushes out B's words
        assert ic.lookup(0 << 6, 8) is MissKind.HIT     # A still present
        assert ic.lookup(1 << 6, 8) is not MissKind.HIT  # B distilled words gone

    def test_sets_do_not_interfere(self):
        ic = DistillationICache(sets=2, loc_ways=1, woc_words_per_set=2)
        ic.fill(0 << 6)             # set 0
        ic.lookup(0 << 6, 8)
        ic.fill(2 << 6)             # set 0: distil block 0
        ic.fill(1 << 6)             # set 1
        ic.lookup(1 << 6, 8)
        ic.fill(3 << 6)             # set 1: distil block 1
        assert ic.lookup(0 << 6, 8) is MissKind.HIT
        assert ic.lookup(1 << 6, 8) is MissKind.HIT


class TestEvictionAccounting:
    def test_byte_usage_recorded_at_distillation(self):
        ic = DistillationICache(sets=1, loc_ways=1)
        ic.fill(0)
        ic.lookup(0, 12)
        ic.fill(64)
        assert ic.byte_usage.evictions == 1
        assert ic.byte_usage.counts[12] == 1

    def test_zero_use_line_distils_nothing(self):
        ic = DistillationICache(sets=1, loc_ways=1)
        ic.fill(0)          # never read
        ic.fill(64)
        assert len(ic._woc[0]) == 0
