"""Small-block (16B/32B) L1-I baseline tests."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.icache import MissKind
from repro.memory.small_block import SmallBlockICache


class TestGeometry:
    def test_sets_for_16b(self):
        ic = SmallBlockICache(block_size=16)
        assert ic.sets == 256

    def test_sets_for_32b(self):
        ic = SmallBlockICache(block_size=32)
        assert ic.sets == 128

    def test_rejects_other_sizes(self):
        with pytest.raises(ConfigurationError):
            SmallBlockICache(block_size=8)


class TestFillBuffer:
    def test_demand_flow(self):
        ic = SmallBlockICache(block_size=16)
        res = ic.lookup(0x1000, 16)
        assert res == MissKind.FULL_MISS
        ic.fill(0x1000)                      # 64B block lands in the buffer
        assert ic.lookup(0x1000, 16) is MissKind.HIT     # promoted from the buffer
        assert ic.buffer_hits == 1
        # Now genuinely resident in the cache array:
        assert ic.lookup(0x1000, 16) is MissKind.HIT

    def test_only_requested_chunks_promoted(self):
        ic = SmallBlockICache(block_size=16)
        ic.fill(0x1000)
        ic.lookup(0x1000, 16)    # promotes chunk [0,16)
        # Push the 64B entry out of the FIFO buffer.
        for i in range(1, ic._buffer_capacity + 1):
            ic.fill(0x1000 + i * 64)
        # Chunk [32,48) was never promoted -> miss.
        assert ic.lookup(0x1020, 16) is not MissKind.HIT

    def test_range_spanning_chunks(self):
        ic = SmallBlockICache(block_size=16)
        ic.fill(0x1000)
        assert ic.lookup(0x1008, 16) is MissKind.HIT     # spans two 16B blocks
        assert ic.lookup(0x1008, 16) is MissKind.HIT

    def test_partial_residency_is_miss(self):
        ic = SmallBlockICache(block_size=16)
        ic.fill(0x1000)
        ic.lookup(0x1000, 8)
        # Range extends into a non-promoted chunk after buffer eviction.
        for i in range(1, ic._buffer_capacity + 1):
            ic.fill(0x1000 + i * 64)
        assert ic.lookup(0x1008, 16) is not MissKind.HIT

    def test_buffer_capacity_bounded(self):
        ic = SmallBlockICache(block_size=16, buffer_entries=4)
        for i in range(10):
            ic.fill(i * 64)
        assert len(ic._buffer) == 4


class TestSnapshot:
    def test_storage_snapshot(self):
        ic = SmallBlockICache(block_size=16)
        ic.fill(0x1000)
        ic.lookup(0x1000, 16)
        used, stored = ic.storage_snapshot()
        assert stored == 16
        assert used == 16

    def test_probe_range(self):
        ic = SmallBlockICache(block_size=32)
        assert not ic.probe_range(0x2000, 16)
        ic.fill(0x2000)
        assert ic.probe_range(0x2000, 16)   # via the buffer
