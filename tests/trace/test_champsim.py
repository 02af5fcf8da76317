"""ChampSim trace interoperability tests."""

import gzip
import struct

import pytest

from repro.errors import TraceError
from repro.trace.arrays import COLUMNS, ArrayTrace
from repro.trace.champsim import (
    REG_FLAGS,
    REG_IP,
    REG_SP,
    RECORD,
    _classify,
    read_champsim,
    write_champsim,
)
from repro.trace.record import Instruction, InstrKind
from repro.trace.synthesis import generate_trace

from ..conftest import small_spec


class TestFormat:
    def test_record_is_64_bytes(self):
        assert RECORD.size == 64


class TestRoundTrip:
    def test_synthetic_trace_roundtrip(self, tmp_path):
        trace = generate_trace(small_spec(), 2000)
        path = tmp_path / "t.champsim"
        write_champsim(path, trace)
        back = read_champsim(path)
        assert isinstance(back, ArrayTrace)
        assert back.pc == trace.pc
        assert back.taken == trace.taken
        for taken, ours, theirs in zip(trace.taken, trace.target,
                                       back.target):
            if taken:
                assert ours == theirs

    def test_kinds_survive(self, tmp_path):
        trace = generate_trace(small_spec(), 4000)
        path = tmp_path / "t.champsim"
        write_champsim(path, trace)
        back = read_champsim(path)
        for i, (ours, theirs) in enumerate(zip(trace.kind, back.kind)):
            if ours in (InstrKind.BR_COND, InstrKind.JUMP,
                        InstrKind.RET, InstrKind.CALL):
                assert theirs == ours, i
            elif ours == InstrKind.CALL_IND:
                # ChampSim's format cannot distinguish direct from
                # indirect calls; both read back as calls.
                assert theirs in (InstrKind.CALL, InstrKind.BR_IND)
            elif ours in (InstrKind.LOAD, InstrKind.STORE):
                assert theirs == ours
                assert back.mem_addr[i] == trace.mem_addr[i]

    def test_sizes_inferred_sequentially(self, tmp_path):
        trace = [
            Instruction(0x1000, 7, InstrKind.ALU),
            Instruction(0x1007, 2, InstrKind.ALU),
            Instruction(0x1009, 4, InstrKind.ALU),
        ]
        path = tmp_path / "t.champsim"
        write_champsim(path, ArrayTrace.from_instructions(trace))
        back = read_champsim(path)
        assert list(back.size[:2]) == [7, 2]

    def test_gzip_path(self, tmp_path):
        trace = generate_trace(small_spec(), 300)
        path = tmp_path / "t.champsim.gz"
        write_champsim(path, trace)
        assert len(read_champsim(path)) == len(trace)

    def test_limit(self, tmp_path):
        trace = generate_trace(small_spec(), 500)
        path = tmp_path / "t.champsim"
        write_champsim(path, trace)
        assert len(read_champsim(path, limit=100)) == 100


def _read_champsim_objects(path, limit=0):
    """The importer as it was before it built columns: one
    :class:`Instruction` per record. The reference for the parity test."""
    records = []
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        while True:
            if limit and len(records) >= limit + 1:
                break
            blob = fh.read(RECORD.size)
            if not blob:
                break
            records.append(RECORD.unpack(blob))
    out = []
    for i, rec in enumerate(records):
        (ip, is_branch, taken,
         d0, d1, s0, s1, s2, s3,
         dmem0, dmem1, smem0, smem1, smem2, smem3) = rec
        next_ip = records[i + 1][0] if i + 1 < len(records) else ip + 4
        if is_branch and taken:
            size = 4
            target = next_ip
        else:
            delta = next_ip - ip
            size = delta if 1 <= delta <= 15 else 4
            target = 0
        dst_regs = (d0, d1)
        src_regs = (s0, s1, s2, s3)
        src_mem = (smem0, smem1, smem2, smem3)
        if is_branch:
            kind = _classify(dst_regs, src_regs, src_mem, bool(taken))
        elif dmem0:
            kind = InstrKind.STORE
        elif smem0:
            kind = InstrKind.LOAD
        else:
            kind = InstrKind.ALU
        mem = dmem0 or smem0 or 0
        gp_dst = next((r for r in dst_regs if r and r not in
                       (REG_IP, REG_SP, REG_FLAGS)), 0)
        gp_src = next((r for r in src_regs if r and r not in
                       (REG_IP, REG_SP, REG_FLAGS)), 0)
        out.append(Instruction(
            ip, size, kind, taken=bool(is_branch and taken), target=target,
            src1=(gp_src & 63) if gp_src else -1,
            dst=(gp_dst & 63) if gp_dst else -1,
            mem_addr=mem if kind in (InstrKind.LOAD, InstrKind.STORE) else 0,
        ))
    if limit and len(out) > limit:
        out = out[:limit]
    return out


def _hand_records():
    """Records covering every classification branch, odd IP deltas (too
    small, too large, backwards) and memory/register patterns the
    synthetic export never writes."""
    zero4 = (0, 0, 0, 0)
    rows = [
        # ip, is_branch, taken, dst[2], src[4], dmem[2], smem[4]
        (0x1000, 0, 0, (3, 0), (5, 7, 0, 0), (0, 0), zero4),
        (0x1003, 0, 0, (REG_SP, 9), (REG_FLAGS, 12, 0, 0), (0x8000, 0),
         zero4),
        (0x1008, 0, 0, (0, 0), (0, 0, 0, 0), (0, 0), (0x9000, 0, 0, 0)),
        (0x1030, 1, 1, (REG_IP, REG_SP), (REG_IP, REG_SP, 0, 0), (0, 0),
         zero4),                                          # call
        (0x2000, 1, 1, (REG_IP, 0), (REG_SP, 0, 0, 0), (0, 0),
         (0x7FFF_F000, 0, 0, 0)),                         # return
        (0x1034, 1, 0, (REG_IP, 0), (REG_FLAGS, REG_IP, 0, 0), (0, 0),
         zero4),                                          # not-taken cond
        (0x1038, 1, 1, (REG_IP, 0), (REG_FLAGS, REG_IP, 0, 0), (0, 0),
         zero4),                                          # taken cond
        (0x1100, 1, 1, (REG_IP, 0), (0, 0, 0, 0), (0, 0), zero4),  # ind.
        (0x1200, 1, 1, (REG_IP, 0), (REG_IP, 0, 0, 0), (0, 0), zero4),
        (0x1300, 1, 1, (0, 0), (0, 0, 0, 0), (0, 0), zero4),  # no IP write
        (0x1000, 0, 0, (70, 0), (200, 0, 0, 0), (0, 0), zero4),  # backwards
        (0x0FF0, 0, 0, (0, 0), (0, 0, 0, 0), (0, 0), zero4),
    ]
    return b"".join(RECORD.pack(ip, br, tk, *dst, *src, *dmem, *smem)
                    for ip, br, tk, dst, src, dmem, smem in rows)


class TestColumnarParity:
    """The columnar importer gives exactly the columns of the object
    path it replaced, on plain and gzip files."""

    @pytest.fixture(params=["t.champsim", "t.champsim.gz"])
    def fixtures(self, request, tmp_path):
        synthetic = tmp_path / ("syn_" + request.param)
        write_champsim(synthetic, generate_trace(small_spec(), 3000))
        hand = tmp_path / ("hand_" + request.param)
        opener = gzip.open if request.param.endswith(".gz") else open
        with opener(hand, "wb") as fh:
            fh.write(_hand_records())
        return synthetic, hand

    @pytest.mark.parametrize("limit", [0, 1, 7, 2500, 10_000])
    def test_columns_match_object_path(self, fixtures, limit):
        for path in fixtures:
            ours = read_champsim(path, limit=limit)
            reference = ArrayTrace.from_instructions(
                _read_champsim_objects(path, limit=limit))
            assert len(ours) == len(reference)
            for name, _fmt in COLUMNS:
                assert getattr(ours, name).tobytes() == \
                    getattr(reference, name).tobytes(), (path.name, name)
            assert ours.to_bytes() == reference.to_bytes()


class TestErrors:
    def test_truncated_record(self, tmp_path):
        path = tmp_path / "bad.champsim"
        path.write_bytes(b"\x00" * 70)   # one full + one partial record
        with pytest.raises(TraceError, match="truncated"):
            read_champsim(path)


class TestSimulation:
    def test_imported_trace_simulates(self, tmp_path):
        from repro.cpu.machine import Machine, build_icache
        trace = generate_trace(small_spec(), 12_000)
        path = tmp_path / "t.champsim"
        write_champsim(path, trace)
        back = read_champsim(path)
        result = Machine(back, build_icache("conv32")).run(3000, 8000)
        assert result.instructions == 8000
        assert result.ipc > 0


class TestPropertyRoundTrip:
    from hypothesis import given, settings, strategies as st

    @st.composite
    def _random_streams(draw):
        from repro.trace.record import Instruction, InstrKind
        n = draw(TestPropertyRoundTrip.st.integers(5, 60))
        rng_kinds = TestPropertyRoundTrip.st.sampled_from([
            InstrKind.ALU, InstrKind.LOAD, InstrKind.STORE,
            InstrKind.BR_COND, InstrKind.JUMP, InstrKind.CALL,
            InstrKind.RET,
        ])
        out = []
        pc = 0x400000
        for _ in range(n):
            kind = draw(rng_kinds)
            size = draw(TestPropertyRoundTrip.st.sampled_from([2, 4, 8, 15]))
            is_br = kind in (InstrKind.BR_COND, InstrKind.JUMP,
                             InstrKind.CALL, InstrKind.RET)
            taken = is_br and (kind != InstrKind.BR_COND or draw(
                TestPropertyRoundTrip.st.booleans()))
            target = pc + draw(
                TestPropertyRoundTrip.st.integers(16, 4096)) if taken else 0
            mem = 0x8000 + 8 * draw(TestPropertyRoundTrip.st.integers(0, 64)) \
                if kind in (InstrKind.LOAD, InstrKind.STORE) else 0
            out.append(Instruction(pc, size, kind, taken=taken,
                                   target=target, mem_addr=mem))
            pc = target if taken else pc + size
        return ArrayTrace.from_instructions(out)

    @given(trace=_random_streams())
    @settings(max_examples=40, deadline=None)
    def test_pc_stream_and_outcomes_preserved(self, trace, tmp_path_factory):
        path = tmp_path_factory.mktemp("cs") / "t.champsim"
        write_champsim(path, trace)
        back = read_champsim(path)
        assert back.pc == trace.pc
        assert back.taken == trace.taken
        # Targets are carried by the *next* record's IP, so the trailing
        # instruction's target is unrecoverable (format limitation).
        for taken, ours, theirs in zip(trace.taken[:-1], trace.target[:-1],
                                       back.target[:-1]):
            if taken:
                assert theirs == ours
