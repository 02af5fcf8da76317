"""LRU set-associative cache tests (L1-D/L2/L3 substrate)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.memory.cache import Cache
from repro.params import CacheParams


def make_cache(size=4096, ways=4, block=64, replacement="lru"):
    return Cache(CacheParams(name="T", size=size, ways=ways, latency=1,
                             mshr_entries=4, block_size=block,
                             replacement=replacement))


def access(cache, addr):
    """Touch, filling on a miss (how the hierarchy uses a level); returns
    ``(hit, evicted)``."""
    if cache.touch(addr):
        return True, None
    return False, cache.fill(addr)


class TestBasics:
    def test_miss_then_hit(self):
        c = make_cache()
        assert access(c, 0x1000) == (False, None)
        assert access(c, 0x1000) == (True, None)
        assert c.hits == 1 and c.misses == 1

    def test_same_block_offsets_hit(self):
        c = make_cache()
        access(c, 0x1000)
        assert c.touch(0x103F)
        assert not c.touch(0x1040)

    def test_probe_has_no_side_effects(self):
        c = make_cache()
        assert not c.probe(0x1000)
        assert c.misses == 0
        c.fill(0x1000)
        assert c.probe(0x1000)
        assert c.hits == c.misses == 0

    def test_eviction_on_conflict(self):
        c = make_cache(size=1024, ways=2)  # 8 sets
        sets = c.sets
        # Three blocks mapping to the same set with 2 ways.
        addrs = [i * sets * 64 for i in range(3)]
        evicted = [access(c, a)[1] for a in addrs]
        assert evicted == [None, None, addrs[0]]
        assert not c.probe(addrs[0])
        assert c.probe(addrs[1]) and c.probe(addrs[2])

    def test_lru_order_respected(self):
        c = make_cache(size=1024, ways=2)
        sets = c.sets
        a, b, d = (i * sets * 64 for i in range(3))
        access(c, a)
        access(c, b)
        access(c, a)       # refresh a
        access(c, d)       # should evict b
        assert c.probe(a) and not c.probe(b)

    def test_evicted_block_misses_until_refilled(self):
        c = make_cache(size=1024, ways=1)
        a, b = 0x2000, 0x2000 + c.sets * 64
        c.fill(a)
        assert c.fill(b) == a
        assert not c.probe(a)
        assert not c.touch(a)
        assert c.fill(a) == b
        assert c.touch(a)

    def test_fill_merged_is_noop(self):
        c = make_cache(size=1024, ways=2)
        a, b, d = (i * c.sets * 64 for i in range(3))
        c.fill(a)
        c.fill(b)
        assert c.fill(a) is None
        # The merged fill did not refresh a: it is still the LRU block.
        assert c.fill(d) == a

    def test_reset_stats(self):
        c = make_cache()
        access(c, 0)
        c.reset_stats()
        assert c.accesses == 0

    @pytest.mark.parametrize("replacement",
                             ["fifo", "random", "srrip", "drrip", "ghrp"])
    def test_rejects_non_lru_replacement(self, replacement):
        with pytest.raises(ConfigurationError, match=replacement):
            make_cache(replacement=replacement)


class TestGeometry:
    def test_sets_computed(self):
        c = make_cache(size=32 * 1024, ways=8)
        assert c.sets == 64
        assert len(c.blocks) == 64

    def test_different_blocks_same_set(self):
        c = make_cache(size=1024, ways=2)
        a = 0
        b = c.sets * 64
        c.fill(a)
        c.fill(b)
        assert c.probe(a) and c.probe(b)
        assert len(c.blocks[0]) == 2
        assert not any(c.blocks[1:])


class StampLRU:
    """The stamp-LRU cache the dict cache replaced, kept as its oracle:
    a tag array per set, a global clock, a hit or fill stamps its way;
    a fill takes the first free way, else the way with the oldest stamp,
    and filling a resident block changes nothing."""

    def __init__(self, sets, ways):
        self.sets = sets
        self.tags = [[None] * ways for _ in range(sets)]
        self.stamp = [[-1] * ways for _ in range(sets)]
        self.clock = 0
        self.hits = self.misses = 0

    def _stamp(self, set_idx, way):
        self.clock += 1
        self.stamp[set_idx][way] = self.clock

    def touch(self, addr):
        block = addr >> 6
        set_idx = block % self.sets
        tags = self.tags[set_idx]
        if block not in tags:
            self.misses += 1
            return False
        self.hits += 1
        self._stamp(set_idx, tags.index(block))
        return True

    def fill(self, addr):
        block = addr >> 6
        set_idx = block % self.sets
        tags = self.tags[set_idx]
        if block in tags:
            return None
        evicted = None
        if None in tags:
            way = tags.index(None)
        else:
            stamps = self.stamp[set_idx]
            way = stamps.index(min(stamps))
            evicted = tags[way] << 6
        tags[way] = block
        self._stamp(set_idx, way)
        return evicted


@settings(max_examples=300, deadline=None)
@given(sets=st.sampled_from([1, 2, 4, 8]),
       ways=st.integers(min_value=1, max_value=4),
       ops=st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=47),
                              st.integers(min_value=0, max_value=63)),
                    max_size=200))
def test_matches_stamp_lru(sets, ways, ops):
    """Over random touch/fill sequences, every touch result, every evicted
    block and the counters match the stamp-LRU oracle."""
    cache = make_cache(size=sets * ways * 64, ways=ways)
    oracle = StampLRU(sets, ways)
    for is_fill, block, offset in ops:
        addr = block * 64 + offset
        if is_fill:
            assert cache.fill(addr) == oracle.fill(addr)
        else:
            assert cache.touch(addr) == oracle.touch(addr)
    assert (cache.hits, cache.misses) == (oracle.hits, oracle.misses)
    for block in range(48):
        assert cache.probe(block * 64) == (block in oracle.tags[block % sets])
