"""UBS cache behavioural tests — the heart of the reproduction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.predictor import PredictorConfig
from repro.core.ubs_cache import UBSICache
from repro.errors import SimulationError
from repro.memory.icache import MissKind
from repro.params import DEFAULT_UBS_WAY_SIZES, UBSParams


def make(sets=4, way_sizes=DEFAULT_UBS_WAY_SIZES, granularity=4,
         merge_gap=8, predictor=None):
    params = UBSParams(sets=sets, predictor_sets=sets, way_sizes=way_sizes,
                       instruction_granularity=granularity,
                       run_merge_gap=merge_gap)
    return UBSICache(params, predictor_config=predictor)


def addr_of(block, offset=0):
    return (block << 6) + offset


def install(ubs, block, marks, conflict_block=None):
    """Put ``block`` through the predictor with the given byte marks and
    force it out so its runs land in the UBS ways."""
    ubs.fill(addr_of(block))
    for offset, nbytes in marks:
        assert ubs.lookup(addr_of(block, offset), nbytes) is MissKind.HIT
    if conflict_block is None:
        conflict_block = block + ubs.predictor.config.sets
    ubs.fill(addr_of(conflict_block))
    assert not ubs.predictor.contains(block)


class TestBasicFlow:
    def test_cold_lookup_is_full_miss(self):
        ubs = make()
        assert ubs.lookup(0x1000, 16) == MissKind.FULL_MISS

    def test_fill_serves_from_predictor(self):
        ubs = make()
        ubs.lookup(0x1000, 16)
        ubs.fill(0x1000)
        assert ubs.lookup(0x1000, 16) is MissKind.HIT
        assert ubs.predictor.contains(0x1000 >> 6)

    def test_install_after_predictor_eviction(self):
        ubs = make()
        install(ubs, block=16, marks=[(0, 16)])
        res = ubs.lookup(addr_of(16, 0), 16)
        assert res is MissKind.HIT                      # now served from a way
        assert ubs.block_count() >= 2       # installed block + conflictor

    def test_unaccessed_block_is_discarded(self):
        ubs = make()
        ubs.fill(addr_of(16))               # prefetch, never accessed
        ubs.fill(addr_of(16 + ubs.predictor.config.sets))
        assert ubs.blocks_discarded == 1
        assert ubs.lookup(addr_of(16), 8) == MissKind.FULL_MISS


class TestWaySelection:
    def test_run_goes_to_fitting_way(self):
        ubs = make()
        install(ubs, block=16, marks=[(0, 16)])
        set_idx = 16 & (ubs.sets - 1)
        ways = [w for w in range(ubs.n_ways)
                if ubs._tags[set_idx][w] == 16]
        assert len(ways) == 1
        way = ways[0]
        # 16-byte run: candidates are the 16/24/32/36-byte ways.
        assert 16 <= ubs.way_sizes[way] <= 36

    def test_small_run_uses_small_way(self):
        ubs = make()
        install(ubs, block=16, marks=[(0, 4)])
        set_idx = 16 & (ubs.sets - 1)
        way = next(w for w in range(ubs.n_ways)
                   if ubs._tags[set_idx][w] == 16)
        assert ubs.way_sizes[way] <= 8   # 4B run -> ways of size 4,4,8,8

    def test_full_block_run_uses_64b_way(self):
        ubs = make()
        install(ubs, block=16, marks=[(0, 64)])
        set_idx = 16 & (ubs.sets - 1)
        way = next(w for w in range(ubs.n_ways)
                   if ubs._tags[set_idx][w] == 16)
        assert ubs.way_sizes[way] == 64

    def test_multiple_runs_use_multiple_ways(self):
        ubs = make(merge_gap=0)
        install(ubs, block=16, marks=[(0, 8), (32, 8)])
        set_idx = 16 & (ubs.sets - 1)
        ways = [w for w in range(ubs.n_ways)
                if ubs._tags[set_idx][w] == 16]
        assert len(ways) == 2

    def test_gap_merge_keeps_one_way(self):
        ubs = make(merge_gap=8)
        install(ubs, block=16, marks=[(0, 8), (16, 8)])
        set_idx = 16 & (ubs.sets - 1)
        ways = [w for w in range(ubs.n_ways)
                if ubs._tags[set_idx][w] == 16]
        assert len(ways) == 1
        # The gap bytes ride along: request inside the gap hits.
        assert ubs.lookup(addr_of(16, 8), 8) is MissKind.HIT


class TestTrailingFill:
    def test_trailing_bytes_hit(self):
        ubs = make()
        install(ubs, block=16, marks=[(0, 16)])
        set_idx = 16 & (ubs.sets - 1)
        way = next(w for w in range(ubs.n_ways)
                   if ubs._tags[set_idx][w] == 16)
        if ubs.way_sizes[way] > 16:
            # The paper fills the way's remaining capacity with the bytes
            # following the sub-block, so they hit.
            assert ubs.lookup(addr_of(16, 16), 4) is MissKind.HIT

    def test_start_offset_anchoring_near_block_end(self):
        ubs = make(granularity=4)
        # 44-byte run starting at 16: needs the 52B way; start_offset is
        # clamped to 64-52=12 so the sub-block fits entirely.
        install(ubs, block=16, marks=[(16, 44)])
        set_idx = 16 & (ubs.sets - 1)
        way = next(w for w in range(ubs.n_ways)
                   if ubs._tags[set_idx][w] == 16)
        assert ubs.way_sizes[way] >= 44
        assert ubs._start[set_idx][way] <= 64 - ubs.way_sizes[way]
        assert ubs._span_end[set_idx][way] <= 64
        assert ubs.lookup(addr_of(16, 16), 16) is MissKind.HIT
        assert ubs.lookup(addr_of(16, 44), 16) is MissKind.HIT


class TestPartialMisses:
    def _resident(self, ubs, block=16, offset=16, nbytes=16):
        install(ubs, block=block, marks=[(offset, nbytes)])
        # sanity: request inside the sub-block hits
        assert ubs.lookup(addr_of(block, offset), nbytes) is MissKind.HIT

    def test_overrun(self):
        ubs = make()
        self._resident(ubs, offset=16, nbytes=16)
        set_idx = 16 & (ubs.sets - 1)
        way = next(w for w in range(ubs.n_ways)
                   if ubs._tags[set_idx][w] == 16)
        span_end = ubs._span_end[set_idx][way]
        if span_end < 64:
            res = ubs.lookup(addr_of(16, span_end - 8), 16)
            assert res == MissKind.OVERRUN
            assert ubs.partial_overrun == 1

    def test_underrun(self):
        ubs = make()
        self._resident(ubs, offset=32, nbytes=16)
        set_idx = 16 & (ubs.sets - 1)
        way = next(w for w in range(ubs.n_ways)
                   if ubs._tags[set_idx][w] == 16)
        start = ubs._start[set_idx][way]
        if start >= 8:
            res = ubs.lookup(addr_of(16, start - 8), 16)
            assert res == MissKind.UNDERRUN
            assert ubs.partial_underrun == 1

    def test_missing_subblock(self):
        ubs = make()
        self._resident(ubs, offset=48, nbytes=16)
        set_idx = 16 & (ubs.sets - 1)
        way = next(w for w in range(ubs.n_ways)
                   if ubs._tags[set_idx][w] == 16)
        if ubs._start[set_idx][way] >= 16:
            res = ubs.lookup(addr_of(16, 0), 8)
            assert res == MissKind.MISSING_SUBBLOCK
            assert ubs.partial_missing == 1

    def test_partial_miss_invalidates_ways(self):
        ubs = make()
        self._resident(ubs, offset=48, nbytes=16)
        set_idx = 16 & (ubs.sets - 1)
        ubs.lookup(addr_of(16, 0), 8)       # partial miss
        assert all(t != 16 for t in ubs._tags[set_idx])

    def test_partial_miss_carries_useful_bits(self):
        ubs = make()
        self._resident(ubs, offset=48, nbytes=16)
        ubs.lookup(addr_of(16, 0), 8)       # partial miss, bits pending
        ubs.fill(addr_of(16))               # refetch lands in predictor
        _, mask = next((b, m) for b, m in ubs.predictor.entries() if b == 16)
        assert mask & (0xFFFF << 48) == 0xFFFF << 48

    def test_recording_flag_gates_partial_counters(self):
        ubs = make()
        ubs.recording = False
        self._resident(ubs, offset=48, nbytes=16)
        ubs.lookup(addr_of(16, 0), 8)
        assert ubs.partial_misses == 0


class TestDuplicationAvoidance:
    def test_no_block_in_both_predictor_and_ways(self):
        ubs = make()
        install(ubs, block=16, marks=[(0, 16)])
        ubs.lookup(addr_of(16, 32), 8)      # partial miss -> invalidation
        ubs.fill(addr_of(16))
        set_idx = 16 & (ubs.sets - 1)
        in_ways = any(t == 16 for t in ubs._tags[set_idx])
        assert ubs.predictor.contains(16) and not in_ways

    def test_prefetch_fill_absorbs_resident_subblocks(self):
        ubs = make()
        install(ubs, block=16, marks=[(0, 16)])
        ubs.fill(addr_of(16), prefetch=True)
        set_idx = 16 & (ubs.sets - 1)
        assert all(t != 16 for t in ubs._tags[set_idx])
        _, mask = next((b, m) for b, m in ubs.predictor.entries() if b == 16)
        assert mask & 0xFFFF == 0xFFFF

    def test_useful_bytes_disjoint_across_ways(self):
        ubs = make(merge_gap=0)
        install(ubs, block=16, marks=[(0, 8), (24, 8), (48, 8)])
        set_idx = 16 & (ubs.sets - 1)
        seen = 0
        for w in range(ubs.n_ways):
            if ubs._tags[set_idx][w] == 16:
                assert seen & ubs._useful[set_idx][w] == 0
                seen |= ubs._useful[set_idx][w]


class TestErrors:
    def test_range_crossing_block_rejected(self):
        with pytest.raises(SimulationError):
            make().lookup(0x1030, 32)


class TestSnapshotInvariants:
    def test_storage_snapshot_bounds(self):
        ubs = make()
        install(ubs, block=16, marks=[(0, 16)])
        used, stored = ubs.storage_snapshot()
        assert 0 < used <= stored

    def test_reset_stats(self):
        ubs = make()
        install(ubs, block=16, marks=[(0, 16)])
        ubs.lookup(addr_of(16, 48), 8)
        ubs.reset_stats()
        assert ubs.partial_misses == 0
        assert ubs.hits == 0 and ubs.misses == 0


@st.composite
def access_sequences(draw):
    n = draw(st.integers(10, 120))
    out = []
    for _ in range(n):
        block = draw(st.integers(0, 31))
        offset = draw(st.integers(0, 15)) * 4
        nbytes = min(draw(st.sampled_from([4, 8, 12, 16])), 64 - offset)
        out.append((block, offset, nbytes))
    return out


class TestPropertyBased:
    @given(seq=access_sequences())
    @settings(max_examples=60, deadline=None)
    def test_invariants_under_random_traffic(self, seq):
        ubs = make(sets=4)
        for block, offset, nbytes in seq:
            res = ubs.lookup(addr_of(block, offset), nbytes)
            if res is not MissKind.HIT:
                ubs.fill(addr_of(block))
                assert ubs.lookup(addr_of(block, offset), nbytes) is MissKind.HIT
            self._check_invariants(ubs)

    def _check_invariants(self, ubs):
        for set_idx in range(ubs.sets):
            for w in range(ubs.n_ways):
                tag = ubs._tags[set_idx][w]
                if tag is None:
                    continue
                # The block belongs in this set.
                assert tag & (ubs.sets - 1) == set_idx
                start = ubs._start[set_idx][w]
                span_end = ubs._span_end[set_idx][w]
                size = ubs.way_sizes[w]
                assert 0 <= start <= 64 - size
                assert span_end == start + size
                # Useful bytes lie within the stored span.
                useful = ubs._useful[set_idx][w]
                span_mask = ((1 << size) - 1) << start
                assert useful & ~span_mask == 0
                # No duplication: the block is not also in the predictor.
                assert not ubs.predictor.contains(tag)

    @given(seq=access_sequences())
    @settings(max_examples=40, deadline=None)
    def test_snapshot_accounting(self, seq):
        ubs = make(sets=4)
        for block, offset, nbytes in seq:
            res = ubs.lookup(addr_of(block, offset), nbytes)
            if res is not MissKind.HIT:
                ubs.fill(addr_of(block))
        used, stored = ubs.storage_snapshot()
        assert 0 <= used <= stored
        max_stored = ubs.sets * (sum(ubs.way_sizes) + 64)
        assert stored <= max_stored
        assert ubs.block_count() <= ubs.sets * (ubs.n_ways + 1)
