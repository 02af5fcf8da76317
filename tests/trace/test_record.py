"""Unit tests for instruction records."""

import pytest

from repro.errors import TraceError
from repro.trace.arrays import ArrayTrace
from repro.trace.record import (
    EXEC_LATENCY,
    IS_BRANCH,
    Instruction,
    InstrKind,
    is_branch_kind,
    is_memory_kind,
    validate_trace,
)


class TestInstrKind:
    def test_branch_kinds(self):
        branches = {InstrKind.BR_COND, InstrKind.JUMP, InstrKind.CALL,
                    InstrKind.RET, InstrKind.BR_IND, InstrKind.CALL_IND}
        for kind in InstrKind:
            assert is_branch_kind(kind) == (kind in branches)

    def test_memory_kinds(self):
        for kind in InstrKind:
            expected = kind in (InstrKind.LOAD, InstrKind.STORE)
            assert is_memory_kind(kind) == expected

    def test_every_kind_has_latency(self):
        for kind in InstrKind:
            assert kind in EXEC_LATENCY
            assert EXEC_LATENCY[kind] >= 0


class TestInstruction:
    """An :class:`Instruction` record as it lands in a trace's columns."""

    @staticmethod
    def one(*args, **kwargs):
        return ArrayTrace.from_instructions([Instruction(*args, **kwargs)])

    def test_next_pc_sequential(self):
        trace = self.one(0x1000, 4, InstrKind.ALU)
        assert trace.end[0] == 0x1004
        assert trace.taken[0] == 0

    def test_next_pc_taken_branch(self):
        trace = self.one(0x1000, 4, InstrKind.BR_COND, taken=True,
                         target=0x2000)
        assert (trace.taken[0], trace.target[0]) == (1, 0x2000)

    def test_next_pc_not_taken_branch(self):
        trace = self.one(0x1000, 4, InstrKind.BR_COND, taken=False,
                         target=0x2000)
        assert (trace.taken[0], trace.end[0]) == (0, 0x1004)

    def test_is_branch_property(self):
        assert IS_BRANCH[self.one(0, 4, InstrKind.RET, taken=True,
                                  target=8).kind[0]]
        assert not IS_BRANCH[self.one(0, 4, InstrKind.ALU).kind[0]]

    def test_is_memory_property(self):
        load = self.one(0, 4, InstrKind.LOAD, mem_addr=64)
        assert is_memory_kind(load.kind[0]) and load.mem_addr[0] == 64
        assert not is_memory_kind(self.one(0, 4, InstrKind.NOP).kind[0])

    def test_equality_and_hash(self):
        a = self.one(0x10, 4, InstrKind.ALU, src1=1, dst=2)
        b = self.one(0x10, 4, InstrKind.ALU, src1=1, dst=2)
        c = self.one(0x10, 4, InstrKind.ALU, src1=3, dst=2)
        assert a == b
        assert a != c
        assert a != "not a trace"
        with pytest.raises(TypeError):
            hash(a)

    def test_variable_size(self):
        assert self.one(0x100, 7, InstrKind.MUL).end[0] == 0x107


class TestValidateTrace:
    def test_accepts_contiguous(self):
        trace = ArrayTrace.from_instructions([
            Instruction(0, 4, InstrKind.ALU),
            Instruction(4, 4, InstrKind.JUMP, taken=True, target=100),
            Instruction(100, 4, InstrKind.ALU),
        ])
        assert validate_trace(trace) is trace

    def test_rejects_discontinuity(self):
        trace = ArrayTrace.from_instructions([
            Instruction(0, 4, InstrKind.ALU),
            Instruction(12, 4, InstrKind.ALU),
        ])
        with pytest.raises(TraceError, match="discontinuity"):
            validate_trace(trace)

    def test_rejects_missed_branch_target(self):
        trace = ArrayTrace.from_instructions([
            Instruction(0, 4, InstrKind.JUMP, taken=True, target=64),
            Instruction(4, 4, InstrKind.ALU),
        ])
        with pytest.raises(TraceError):
            validate_trace(trace)

    def test_empty_trace_is_fine(self):
        trace = ArrayTrace.from_instructions([])
        assert validate_trace(trace) is trace
