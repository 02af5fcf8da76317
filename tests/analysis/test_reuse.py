"""Reuse-distance / working-set analysis tests."""

import pytest

from repro.analysis.reuse import reuse_distance_histogram, working_set_curve
from repro.trace.arrays import ArrayTrace
from repro.trace.record import Instruction, InstrKind


def block_stream(blocks):
    """One 4-byte instruction per named 64B block, jumping between them."""
    pcs = [b * 64 for b in blocks]
    return ArrayTrace.from_instructions(
        Instruction(pc, 4, InstrKind.JUMP, taken=nxt is not None,
                    target=nxt or 0)
        for pc, nxt in zip(pcs, pcs[1:] + [None]))


class TestReuseDistance:
    def test_cold_misses(self):
        hist = reuse_distance_histogram(block_stream([1, 2, 3]))
        assert hist == {"cold": 3}

    def test_immediate_reuse(self):
        hist = reuse_distance_histogram(block_stream([1, 2, 1]))
        # Between the two accesses to block 1 we touched one distinct
        # block (2) -> distance 1 -> bucket "<8".
        assert hist["cold"] == 2
        assert hist["<8"] == 1

    def test_distance_counts_distinct_blocks(self):
        # 1, 2, 2, 2, 1 -> still distance 1 for the second access to 1.
        hist = reuse_distance_histogram(block_stream([1, 2, 2, 2, 1]))
        assert hist["<8"] == 1

    def test_large_distance_bucketed_high(self):
        blocks = [0] + list(range(1, 40)) + [0]
        hist = reuse_distance_histogram(block_stream(blocks))
        assert hist.get("<64", 0) == 1

    def test_cyclic_working_set(self):
        blocks = list(range(10)) * 5
        hist = reuse_distance_histogram(block_stream(blocks))
        assert hist["cold"] == 10
        assert hist["<16"] == 40  # every reuse at distance 9

    def test_total_accesses_conserved(self):
        blocks = [1, 5, 1, 9, 5, 1, 7]
        hist = reuse_distance_histogram(block_stream(blocks))
        assert sum(hist.values()) == len(blocks)


class TestWorkingSetCurve:
    def test_window_points(self):
        trace = block_stream(list(range(100)))
        points = working_set_curve(trace, window=25)
        assert len(points) == 4
        assert all(kib == pytest.approx(25 * 64 / 1024) for _s, kib in points)

    def test_partial_tail_window(self):
        trace = block_stream(list(range(30)))
        points = working_set_curve(trace, window=25)
        assert len(points) == 2
        assert points[1][0] == 25

    def test_phase_change_visible(self):
        trace = block_stream([1, 2] * 50 + list(range(100, 200)))
        points = working_set_curve(trace, window=100)
        assert points[0][1] < points[1][1]
