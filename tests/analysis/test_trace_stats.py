"""Trace-statistics analysis tests."""

import pytest

from repro.analysis.trace_stats import (
    branch_profile,
    footprint,
    instruction_mix,
    run_length_profile,
)
from repro.trace.arrays import ArrayTrace
from repro.trace.record import Instruction, InstrKind


def seq(n, pc=0x1000, size=4, times=1):
    """``n`` straight-line ALU instructions, repeated ``times`` times."""
    out = []
    for _ in range(n):
        out.append(Instruction(pc, size, InstrKind.ALU))
        pc += size
    return ArrayTrace.from_instructions(out * times)


class TestFootprint:
    def test_straight_line(self):
        trace = seq(32)  # 128 bytes over 2-3 blocks
        report = footprint(trace)
        assert report.unique_pcs == 32
        assert report.unique_blocks in (2, 3)
        assert report.footprint_bytes == report.unique_blocks * 64

    def test_loop_counts_once(self):
        trace = seq(16, times=10)
        assert footprint(trace).unique_pcs == 16

    def test_straddling_instruction_counts_both_blocks(self):
        trace = ArrayTrace.from_instructions(
            [Instruction(0x103C, 8, InstrKind.ALU)])
        assert footprint(trace).unique_blocks == 2

    def test_on_synthetic_trace(self, tiny_trace):
        report = footprint(tiny_trace)
        assert report.instructions == len(tiny_trace)
        assert 0 < report.footprint_kib < 1024


class TestInstructionMix:
    def test_mix_sums_to_one(self, tiny_trace):
        mix = instruction_mix(tiny_trace)
        assert sum(mix.fractions.values()) == pytest.approx(1.0)

    def test_branch_and_memory_fractions(self, tiny_trace):
        mix = instruction_mix(tiny_trace)
        assert 0.05 < mix.branch_fraction < 0.6
        assert 0.05 < mix.memory_fraction < 0.7

    def test_pure_alu(self):
        mix = instruction_mix(seq(10))
        assert mix["ALU"] == 1.0
        assert mix.branch_fraction == 0.0


class TestBranchProfile:
    def test_counts(self):
        trace = ArrayTrace.from_instructions([
            Instruction(0, 4, InstrKind.ALU),
            Instruction(4, 4, InstrKind.BR_COND, taken=True, target=64),
            Instruction(64, 4, InstrKind.BR_COND, taken=False, target=0),
            Instruction(68, 4, InstrKind.JUMP, taken=True, target=4),
            Instruction(4, 4, InstrKind.BR_COND, taken=True, target=64),
        ])
        p = branch_profile(trace)
        assert p.branches == 4
        assert p.conditional == 3
        assert p.conditional_taken == 2
        assert p.static_sites == 3
        assert p.taken_fraction == pytest.approx(0.75)

    def test_no_branches(self):
        p = branch_profile(seq(5))
        assert p.branches == 0
        assert p.taken_fraction == 0.0
        assert p.avg_basic_block_instrs == 5.0


class TestRunLengths:
    def test_straight_line_is_one_run(self):
        runs = run_length_profile(seq(16))
        assert runs == {64: 1}

    def test_taken_branch_splits_runs(self):
        trace = ArrayTrace.from_instructions([
            Instruction(0, 4, InstrKind.ALU),
            Instruction(4, 4, InstrKind.JUMP, taken=True, target=256),
            Instruction(256, 4, InstrKind.ALU),
        ])
        runs = run_length_profile(trace)
        assert runs[8] == 1
        assert runs[4] == 1

    def test_synthetic_runs_match_block_scale(self, tiny_trace):
        runs = run_length_profile(tiny_trace)
        total = sum(runs.values())
        small = sum(c for length, c in runs.items() if length <= 64)
        assert small / total > 0.5  # most fetch runs fit a cache block
