"""Sub-block (run) extraction tests, incl. hypothesis properties."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.subblock import extract_runs, mask_of_run


class TestBasicExtraction:
    def test_empty_mask(self):
        assert extract_runs(0) == []

    def test_single_run(self):
        mask = mask_of_run(8, 12)
        assert extract_runs(mask) == [(8, 12)]

    def test_two_runs(self):
        mask = mask_of_run(0, 4) | mask_of_run(16, 8)
        assert extract_runs(mask) == [(0, 4), (16, 8)]

    def test_full_block(self):
        mask = mask_of_run(0, 64)
        assert extract_runs(mask) == [(0, 64)]

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError):
            extract_runs(-1)


class TestGranularity:
    def test_snap_outward(self):
        # Bytes 5..6 used; instruction granularity 4 snaps to [4, 8).
        mask = mask_of_run(5, 2)
        assert extract_runs(mask, granularity=4) == [(4, 4)]

    def test_snapping_merges_adjacent_runs(self):
        # [2,4) and [5,7) both snap into [0,8) => one run.
        mask = mask_of_run(2, 2) | mask_of_run(5, 2)
        assert extract_runs(mask, granularity=4) == [(0, 8)]

    def test_aligned_runs_unchanged(self):
        mask = mask_of_run(4, 8)
        assert extract_runs(mask, granularity=4) == [(4, 8)]

    def test_snap_clamped_to_block(self):
        mask = mask_of_run(62, 2)
        runs = extract_runs(mask, granularity=4)
        assert runs == [(60, 4)]


class TestMergeGap:
    def test_gap_merging(self):
        mask = mask_of_run(0, 4) | mask_of_run(8, 4)
        assert extract_runs(mask, merge_gap=4) == [(0, 12)]

    def test_gap_too_large(self):
        mask = mask_of_run(0, 4) | mask_of_run(16, 4)
        assert extract_runs(mask, merge_gap=4) == [(0, 4), (16, 4)]

    def test_chained_merging(self):
        mask = mask_of_run(0, 4) | mask_of_run(8, 4) | mask_of_run(16, 4)
        assert extract_runs(mask, merge_gap=4) == [(0, 20)]


@st.composite
def byte_masks(draw):
    n_runs = draw(st.integers(0, 6))
    mask = 0
    for _ in range(n_runs):
        start = draw(st.integers(0, 63))
        length = draw(st.integers(1, 64 - start))
        mask |= mask_of_run(start, length)
    return mask


class TestProperties:
    @given(mask=byte_masks(), granularity=st.sampled_from([1, 2, 4]),
           merge_gap=st.sampled_from([0, 4, 8]))
    @settings(max_examples=300, deadline=None)
    def test_runs_cover_all_set_bits(self, mask, granularity, merge_gap):
        runs = extract_runs(mask, granularity, merge_gap=merge_gap)
        covered = 0
        for start, length in runs:
            covered |= mask_of_run(start, length)
        assert mask & ~covered == 0

    @given(mask=byte_masks(), granularity=st.sampled_from([1, 2, 4]),
           merge_gap=st.sampled_from([0, 8]))
    @settings(max_examples=300, deadline=None)
    def test_runs_disjoint_sorted_aligned(self, mask, granularity, merge_gap):
        runs = extract_runs(mask, granularity, merge_gap=merge_gap)
        prev_end = -1
        for start, length in runs:
            assert length > 0
            assert start % granularity == 0
            assert start > prev_end
            assert start + length <= 64
            prev_end = start + length - 1

    @given(mask=byte_masks())
    @settings(max_examples=200, deadline=None)
    def test_byte_granularity_exact(self, mask):
        runs = extract_runs(mask, granularity=1)
        covered = 0
        for start, length in runs:
            covered |= mask_of_run(start, length)
        assert covered == mask


def byte_walk_runs(mask, granularity=1, block_size=64, merge_gap=0):
    """The reference extraction: a walk over every byte of the block.
    :func:`extract_runs` finds the runs by bit arithmetic instead and must
    return exactly this."""
    runs = []
    i = 0
    while i < block_size:
        if mask >> i & 1:
            j = i + 1
            while j < block_size and mask >> j & 1:
                j += 1
            start = (i // granularity) * granularity
            end = ((j + granularity - 1) // granularity) * granularity
            end = min(end, block_size)
            if runs and runs[-1][0] + runs[-1][1] + merge_gap >= start:
                prev_start, _prev_len = runs.pop()
                start = prev_start
            runs.append((start, end - start))
            i = j
        else:
            i += 1
    return runs


class TestByteWalkOracle:
    @given(mask=st.one_of(st.integers(0, (1 << 64) - 1), byte_masks()),
           granularity=st.sampled_from([1, 2, 4]),
           block_size=st.sampled_from([32, 64]),
           merge_gap=st.integers(0, 16))
    @settings(max_examples=1000, deadline=None)
    @example(mask=(1 << 64) - 1, granularity=4, block_size=32, merge_gap=0)
    @example(mask=(1 << 64) - 1, granularity=4, block_size=64, merge_gap=0)
    def test_equals_byte_walk(self, mask, granularity, block_size,
                              merge_gap):
        assert extract_runs(mask, granularity, block_size, merge_gap) == \
            byte_walk_runs(mask, granularity, block_size, merge_gap)
