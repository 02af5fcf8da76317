"""Conventional instruction cache tests, incl. the motivation stats."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.memory.icache import ConventionalICache, MissKind
from repro.params import conventional_l1i


def make(size=32 * 1024, ways=8, **kw):
    return ConventionalICache(conventional_l1i(size, ways=ways), **kw)


class TestLookup:
    def test_miss_then_fill_then_hit(self):
        ic = make()
        assert ic.lookup(0x1000, 16) == MissKind.FULL_MISS
        ic.fill(0x1000)
        assert ic.lookup(0x1000, 16) is MissKind.HIT

    def test_block_addr_aligned(self):
        # A miss at any offset is served by filling the aligned block.
        ic = make()
        assert ic.lookup(0x1037, 8) == MissKind.FULL_MISS
        ic.fill(0x1037 & -64)
        assert ic.lookup(0x1037, 8) is MissKind.HIT

    def test_range_must_stay_in_block(self):
        ic = make()
        with pytest.raises(SimulationError, match="crosses"):
            ic.lookup(0x1030, 32)

    def test_range_to_block_end_ok(self):
        ic = make()
        ic.fill(0x1000)
        assert ic.lookup(0x1030, 16) is MissKind.HIT

    def test_rejects_non_64b_blocks(self):
        with pytest.raises(ConfigurationError):
            ConventionalICache(conventional_l1i(32 * 1024, block_size=32))

    def test_probe_no_side_effects(self):
        ic = make()
        assert not ic.probe_range(0x1000, 16)
        assert ic.misses == 0


class TestAccessedBits:
    def test_storage_snapshot_tracks_marks(self):
        ic = make()
        ic.fill(0x1000)
        ic.lookup(0x1000, 16)
        used, stored = ic.storage_snapshot()
        assert stored == 64
        assert used == 16
        ic.lookup(0x1010, 8)
        used, _ = ic.storage_snapshot()
        assert used == 24

    def test_overlapping_marks_not_double_counted(self):
        ic = make()
        ic.fill(0x1000)
        ic.lookup(0x1000, 16)
        ic.lookup(0x1008, 16)
        used, _ = ic.storage_snapshot()
        assert used == 24

    def test_fill_resets_bits(self):
        ic = make(size=1024, ways=2)  # 8 sets
        sets = ic.sets
        ic.fill(0)
        ic.lookup(0, 32)
        # Evict block 0 by filling the same set twice more.
        ic.fill(sets * 64)
        ic.fill(2 * sets * 64)
        ic.fill(0)
        used, _ = ic.storage_snapshot()
        assert used == 0


class TestEvictionHistogram:
    def test_eviction_records_usage(self):
        ic = make(size=1024, ways=1)  # direct-mapped, 16 sets
        sets = ic.sets
        ic.fill(0)
        ic.lookup(0, 24)
        ic.fill(sets * 64)   # evicts block 0
        assert ic.byte_usage.evictions == 1
        assert ic.byte_usage.counts[24] == 1

    def test_recording_flag_gates_histogram(self):
        ic = make(size=1024, ways=1)
        ic.recording = False
        ic.fill(0)
        ic.fill(ic.sets * 64)
        assert ic.byte_usage.evictions == 0

    def test_flush_residents(self):
        ic = make()
        ic.fill(0x1000)
        ic.lookup(0x1000, 64)
        ic.flush_residents_into_stats()
        assert ic.byte_usage.counts[64] == 1
        assert ic.block_count() == 0


class TestTouchDistance:
    def test_bytes_before_first_miss(self):
        ic = make(size=1024, ways=1, track_touch_distance=True)
        sets = ic.sets
        ic.lookup(0, 8)                  # miss #1 in set 0
        ic.fill(0)
        ic.lookup(0, 8)                  # touched at delta 0
        ic.lookup(sets * 64, 8)          # miss #2 in set 0
        ic.fill(sets * 64)               # evicts block 0
        assert ic.touch_distance.total_accessed == 8
        assert ic.touch_distance.fraction(1) == 1.0

    def test_late_touches_excluded_from_n1(self):
        ic = make(size=1024, ways=2, track_touch_distance=True)
        sets = ic.sets
        ic.lookup(0, 8)
        ic.fill(0)
        ic.lookup(0, 8)                     # 8 bytes at delta 0
        ic.lookup(sets * 64, 8)             # miss in the set
        ic.fill(sets * 64)
        ic.lookup(8, 8)                     # 8 more bytes at delta 1
        ic.lookup(sets * 64, 8)             # make the other block MRU
        ic.lookup(2 * sets * 64, 8)         # miss -> evicts LRU (block 0)
        ic.fill(2 * sets * 64)
        td = ic.touch_distance
        assert td.total_accessed == 16
        assert td.fraction(1) == pytest.approx(0.5)
        assert td.fraction(2) == pytest.approx(1.0)


class TestInvalidate:
    def test_invalidate_present(self):
        ic = make()
        ic.fill(0x2000)
        assert ic.invalidate(0x2000)
        assert not ic.probe_range(0x2000, 4)

    def test_invalidate_absent(self):
        assert not make().invalidate(0x2000)


class TestProperties:
    @given(st.lists(st.tuples(st.integers(0, 1023), st.integers(1, 16)),
                    min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_used_never_exceeds_stored(self, accesses):
        ic = make(size=2048, ways=2)
        for block_idx, nbytes in accesses:
            addr = block_idx * 64 + (64 - nbytes)
            res = ic.lookup(addr, nbytes)
            if res is not MissKind.HIT:
                ic.fill(block_idx * 64)
                ic.lookup(addr, nbytes)
        used, stored = ic.storage_snapshot()
        assert 0 <= used <= stored
        assert stored == ic.block_count() * 64

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, blocks):
        ic = make(size=1024, ways=1)
        for b in blocks:
            res = ic.lookup(b * 64, 4)
            if res is not MissKind.HIT:
                ic.fill(b * 64)
        assert ic.accesses == len(blocks)
