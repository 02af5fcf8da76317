"""Fetch range stream tests (``precompute_range_stream`` and
``segment_stream``)."""

from repro.frontend.bpu import BranchPredictionUnit, Resteer
from repro.frontend.ftq import precompute_range_stream, segment_stream
from repro.trace.arrays import ArrayTrace
from repro.trace.record import Instruction, InstrKind
from repro.trace.synthesis import generate_trace

from ..conftest import small_spec
from ..range_view import range_rows


def straight(pc, n, size=4):
    out = []
    for _ in range(n):
        out.append(Instruction(pc, size, InstrKind.ALU))
        pc += size
    return out


def ranges(trace, bpu=None):
    """The fetch ranges of an instruction list, built the way the
    machine builds them: over the columnar form of the trace."""
    stream = precompute_range_stream(ArrayTrace.from_instructions(trace),
                                     bpu or BranchPredictionUnit())
    return range_rows(stream)


class TestRangeConstruction:
    def test_simple_block_range(self):
        (fr,) = ranges(straight(0x1000, 4))
        assert fr.start == 0x1000
        assert fr.nbytes == 16
        assert fr.n_instrs == 4
        assert fr.resteer == Resteer.NONE

    def test_range_splits_at_block_boundary(self):
        fr1, fr2 = ranges(straight(0x1000, 32))   # 128 bytes = 2 blocks
        assert fr1.start == 0x1000 and fr1.nbytes == 64
        assert fr2.start == 0x1040 and fr2.nbytes == 64

    def test_unaligned_start(self):
        fr1, fr2 = ranges(straight(0x1030, 8))
        assert fr1.start == 0x1030 and fr1.end == 0x1040
        assert fr2.start == 0x1040

    def test_straddling_instruction(self):
        # 15-byte instruction crossing the 64B boundary.
        trace = ArrayTrace.from_instructions([
            Instruction(0x1038, 15, InstrKind.ALU),
            Instruction(0x1047, 4, InstrKind.ALU),
        ])
        fr1, fr2 = ranges(trace)
        assert fr1.start == 0x1038 and fr1.end == 0x1040
        assert fr1.n_instrs == 0      # instruction completes later
        assert fr2.start == 0x1040
        assert fr2.first_index == 0
        assert trace.end[fr2.first_index] == 0x1047
        assert fr2.n_instrs == 2

    def test_taken_branch_ends_range(self):
        jump = Instruction(0x1008, 4, InstrKind.JUMP, taken=True,
                           target=0x2000)
        trace = straight(0x1000, 2) + [jump] + straight(0x2000, 2)
        fr1, fr2 = ranges(trace)
        # Cold BTB -> decode resteer ends the range; the next range
        # starts at the branch target.
        assert fr1.resteer == Resteer.DECODE
        assert fr1.end == 0x100C
        assert fr2.start == 0x2000
        assert fr2.resteer == Resteer.NONE

    def test_learned_taken_branch_continues_at_target(self):
        bpu = BranchPredictionUnit()
        bpu.btb.update(0x1008, 0x2000)
        jump = Instruction(0x1008, 4, InstrKind.JUMP, taken=True,
                           target=0x2000)
        trace = straight(0x1000, 2) + [jump] + straight(0x2000, 2)
        fr1, fr2 = ranges(trace, bpu)
        assert fr1.resteer == Resteer.NONE
        assert fr1.end == 0x100C
        assert fr2.start == 0x2000

    def test_exhaustion(self):
        # The stream ends with the range holding the last instruction.
        (fr,) = ranges(straight(0x1000, 2))
        assert fr.first_index + fr.n_instrs == 2
        assert ranges([]) == []


class TestBranchEndingOnBlockBoundary:
    """A branch whose last byte is the last byte of a 64-byte block
    closes its range on the boundary and on the branch at once."""

    def _trace(self):
        # ALUs fill 0x1030..0x103C; the jump occupies 0x103C..0x1040.
        jump = Instruction(0x103C, 4, InstrKind.JUMP, taken=True,
                           target=0x2000)
        return straight(0x1030, 3) + [jump] + straight(0x2000, 2)

    def test_cold_btb_resteer(self):
        bpu = BranchPredictionUnit()
        fr1, fr2 = ranges(self._trace(), bpu)
        assert fr1.start == 0x1030 and fr1.end == 0x1040
        assert fr1.n_instrs == 4
        assert fr1.resteer == Resteer.DECODE
        assert fr2.start == 0x2000 and fr2.first_index == 4
        assert fr2.resteer == Resteer.NONE
        assert bpu.btb.lookup(0x103C) == 0x2000   # trained by the walk

    def test_learned_taken_branch(self):
        bpu = BranchPredictionUnit()
        bpu.btb.update(0x103C, 0x2000)
        fr1, fr2 = ranges(self._trace(), bpu)
        assert fr1.end == 0x1040 and fr1.n_instrs == 4
        assert fr1.resteer == Resteer.NONE
        assert fr2.start == 0x2000 and fr2.first_index == 4


class TestRangesCoverTrace:
    def test_every_instruction_delivered_exactly_once(self):
        trace = generate_trace(small_spec(), 3000)
        indices = []
        for fr in ranges(trace):
            start = fr.first_index
            indices.extend(range(start, start + fr.n_instrs))
        assert indices == list(range(len(trace)))

    def test_ranges_stay_within_blocks(self):
        trace = generate_trace(small_spec(isa="variable"), 3000)
        for fr in ranges(trace):
            assert fr.start >> 6 == (fr.end - 1) >> 6
            assert 0 < fr.nbytes <= 64


class TestDeliveryChunks:
    def _chunks(self, instrs, fetch_bytes=16, fetch_width=4):
        trace = ArrayTrace.from_instructions(instrs)
        stream = precompute_range_stream(trace, BranchPredictionUnit())
        chunks = segment_stream(trace, stream, fetch_bytes, fetch_width)
        return [[(chunks.end[c], chunks.delivered[c])
                 for c in range(chunks.offset[r], chunks.offset[r + 1])]
                for r in range(len(stream))]

    def test_byte_limit_splits_a_block(self):
        (chunks,) = self._chunks(straight(0x1000, 16))
        assert chunks == [(0x1010, 4), (0x1020, 8), (0x1030, 12),
                          (0x1040, 16)]

    def test_width_limit_clips_to_last_completing_instruction(self):
        # Eight 2-byte instructions: 16 bytes, but four per cycle.
        (chunks,) = self._chunks(straight(0x1000, 8, size=2))
        assert chunks == [(0x1008, 4), (0x1010, 8)]

    def test_straddler_gets_an_empty_chunk_then_completes(self):
        trace = [Instruction(0x1038, 15, InstrKind.ALU),
                 Instruction(0x1047, 4, InstrKind.ALU)]
        assert self._chunks(trace) == [[(0x1040, 0)], [(0x104B, 2)]]
