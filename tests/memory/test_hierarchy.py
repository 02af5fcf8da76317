"""Memory hierarchy composition tests."""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.memory.hierarchy import MemoryHierarchy
from repro.params import MachineParams


class TestInstructionPath:
    def test_l2_hit_latency(self):
        h = MemoryHierarchy()
        h.l2.fill(0x4000)
        assert h.fetch_block(0x4000, 0) == h.l2.params.latency

    def test_l3_hit_fills_l2(self):
        h = MemoryHierarchy()
        h.l3.fill(0x4000)
        latency = h.fetch_block(0x4000, 0)
        assert latency == h.l2.params.latency + h.l3.params.latency
        assert h.l2.probe(0x4000)

    def test_dram_path_fills_both(self):
        h = MemoryHierarchy()
        latency = h.fetch_block(0x4000, 0)
        assert latency > h.l2.params.latency + h.l3.params.latency
        assert h.l2.probe(0x4000) and h.l3.probe(0x4000)
        assert h.dram.accesses == 1

    def test_second_fetch_hits_l2(self):
        h = MemoryHierarchy()
        h.fetch_block(0x4000, 0)
        assert h.fetch_block(0x4000, 100) == h.l2.params.latency


class TestDataPath:
    """The data side as the back end drives it: ``l1d.touch`` first, then
    ``data_load_miss``/``data_store_miss`` on a miss of the live L1-D, or
    ``_below_l1`` straight away for a miss of a private L1-D whose
    outcomes were replayed into the op table."""

    def test_l1d_hit(self):
        h = MemoryHierarchy()
        h.l1d.fill(0x8000)
        assert h.l1d.touch(0x8000)
        assert (h.l1d.hits, h.l2.accesses) == (1, 0)

    def test_load_miss_fills_l1d(self):
        h = MemoryHierarchy()
        assert not h.l1d.touch(0x8000)
        latency = h.data_load_miss(0x8000, 0)
        assert latency > h.l1d.params.latency + h.l2.params.latency \
            + h.l3.params.latency
        assert h.l1d.probe(0x8000) and h.l2.probe(0x8000)
        assert h.l1d.touch(0x8000)

    def test_store_does_not_wait_for_fill(self):
        h = MemoryHierarchy()
        assert not h.l1d.touch(0x8000)
        # Write-allocate happens in the background: nothing to wait for.
        assert h.data_store_miss(0x8000, 0) is None
        assert h.l1d.probe(0x8000) and h.l2.probe(0x8000)

    def test_instruction_and_data_share_l2(self):
        h = MemoryHierarchy()
        h.data_load_miss(0xA000, 0)
        assert h.fetch_block(0xA000, 100) == h.l2.params.latency
        # A private L1-D's miss goes below the L1 without touching it.
        h._below_l1(0xC000, 0)
        assert not h.l1d.probe(0xC000)
        assert h.fetch_block(0xC000, 100) == h.l2.params.latency

    def test_reset_stats(self):
        h = MemoryHierarchy()
        h.fetch_block(0, 0)
        h.l1d.touch(64)
        h.data_load_miss(64, 0)
        h.reset_stats()
        assert h.l1d.accesses == 0
        assert h.l2.accesses == 0
        assert h.dram.accesses == 0
        assert h.instr_fetches == 0

    def test_custom_params(self):
        params = MachineParams()
        h = MemoryHierarchy(params)
        assert h.l3.params.size == 2 * 1024 * 1024


def reference_below_l1(l2, l3, dram, addr, cycle):
    """The L2 -> L3 -> DRAM walk composed from ``Cache.touch``/``fill``."""
    latency = l2.params.latency
    if l2.touch(addr):
        return latency
    latency += l3.params.latency
    if not l3.touch(addr):
        latency += dram.access(addr, cycle + latency)
        l3.fill(addr)
    l2.fill(addr)
    return latency


def shrunk(level, sets, ways):
    return replace(level, size=sets * ways * level.block_size, ways=ways)


@settings(max_examples=200, deadline=None)
@given(l2_geom=st.tuples(st.sampled_from([1, 2, 4]),
                         st.integers(min_value=1, max_value=4)),
       l3_geom=st.tuples(st.sampled_from([1, 2, 4, 8]),
                         st.integers(min_value=1, max_value=4)),
       ops=st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                              st.integers(min_value=0, max_value=63),
                              st.integers(min_value=0, max_value=500)),
                    max_size=150))
def test_inline_walk_matches_touch_and_fill(l2_geom, l3_geom, ops):
    """``_below_l1`` walks the L2/L3 set dicts inline; it must leave the
    same latencies, counters and set contents (in LRU order) as the walk
    composed from ``Cache.touch``/``fill`` on twin levels."""
    base = MachineParams()
    params = replace(base, l2=shrunk(base.l2, *l2_geom),
                     l3=shrunk(base.l3, *l3_geom))
    h = MemoryHierarchy(params)
    l2, l3, dram = Cache(params.l2), Cache(params.l3), DRAM(params.dram)
    cycle = 0
    for block, offset, gap in ops:
        cycle += gap
        addr = block * 64 + offset
        assert h._below_l1(addr, cycle) == \
            reference_below_l1(l2, l3, dram, addr, cycle)
    for ours, twin in ((h.l2, l2), (h.l3, l3)):
        assert (ours.hits, ours.misses) == (twin.hits, twin.misses)
        assert [list(s) for s in ours.blocks] == [list(s) for s in twin.blocks]
    assert (h.dram.row_hits, h.dram.row_misses) == \
        (dram.row_hits, dram.row_misses)
