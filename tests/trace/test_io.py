"""Trace file round-trip tests."""

import random
import struct

import pytest

from repro.errors import TraceError
from repro.trace.arrays import COLUMNS, MAGIC, VERSION, ArrayTrace
from repro.trace.io import read_trace, write_trace
from repro.trace.record import Instruction, InstrKind

from ..trace_columns import columns, record_columns


def _random_records(n, seed=0):
    """``n`` random, control-flow-continuous instruction records."""
    rng = random.Random(seed)
    out = []
    pc = 0x400000
    for _ in range(n):
        kind = rng.choice(list(InstrKind))
        size = rng.choice((2, 4, 8, 15))
        taken = kind in (InstrKind.JUMP, InstrKind.CALL, InstrKind.RET)
        ins = Instruction(pc, size, kind, taken=taken,
                          target=rng.randrange(1 << 40) if taken else 0,
                          src1=rng.randrange(-1, 32),
                          src2=rng.randrange(-1, 32),
                          dst=rng.randrange(-1, 32),
                          mem_addr=rng.randrange(1 << 40)
                          if kind in (InstrKind.LOAD, InstrKind.STORE) else 0)
        out.append(ins)
        pc = ins.target if taken else pc + size
    return out


def _random_trace(n, seed=0):
    return ArrayTrace.from_instructions(_random_records(n, seed))


class TestRoundTrip:
    def test_plain_roundtrip(self, tmp_path):
        trace = _random_trace(500)
        path = tmp_path / "t.trace"
        assert write_trace(path, trace) == 500
        back = read_trace(path)
        assert isinstance(back, ArrayTrace)
        assert back == trace

    def test_gzip_roundtrip(self, tmp_path):
        trace = _random_trace(200, seed=1)
        path = tmp_path / "t.trace.gz"
        write_trace(path, trace)
        assert path.exists()
        # really gzip-compressed on disk
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        assert read_trace(path) == trace

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trace"
        write_trace(path, ArrayTrace.from_instructions([]))
        assert len(read_trace(path)) == 0

    def test_field_fidelity(self, tmp_path):
        ins = Instruction(0xDEADBEEF, 15, InstrKind.CALL_IND, taken=True,
                          target=0xCAFEBABE, src1=31, src2=-1, dst=0,
                          mem_addr=0)
        path = tmp_path / "one.trace"
        write_trace(path, ArrayTrace.from_instructions([ins]))
        out = columns(read_trace(path))
        assert out == record_columns([ins])
        assert out["pc"] == [0xDEADBEEF]
        assert out["kind"] == [InstrKind.CALL_IND]
        assert out["taken"] == [1]
        assert out["target"] == [0xCAFEBABE]
        assert (out["src1"], out["src2"], out["dst"]) == ([31], [-1], [0])


class TestChampSimAutoDetect:
    def test_extension_detected(self, tmp_path):
        from repro.trace.champsim import write_champsim
        from repro.trace.io import is_champsim_file

        trace = _random_trace(64, seed=3)
        path = tmp_path / "real.champsim"
        write_champsim(path, trace)
        assert is_champsim_file(path)
        out = read_trace(path)
        # ChampSim records carry no sizes, so only the IP stream is
        # exactly preserved; that is all auto-detection promises.
        assert out.pc == trace.pc

    def test_compressed_extension_detected(self, tmp_path):
        from repro.trace.io import is_champsim_file

        assert is_champsim_file(tmp_path / "x.champsimtrace.xz")
        assert is_champsim_file(tmp_path / "x.champsim.gz")
        assert not is_champsim_file(tmp_path / "x.trace.gz")
        assert not is_champsim_file(tmp_path / "x.atrace")


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(TraceError, match="bad magic") as exc:
            read_trace(path)
        assert str(path) in str(exc.value)

    def test_truncated_payload(self, tmp_path):
        trace = _random_trace(10)
        path = tmp_path / "t.trace"
        write_trace(path, trace)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(TraceError, match="truncated"):
            read_trace(path)

    def test_magic_constant_is_stable(self, tmp_path):
        # On-disk format compatibility: every written trace carries the
        # columnar container's magic and version.
        path = tmp_path / "t.trace"
        write_trace(path, _random_trace(3))
        assert path.read_bytes()[:8] == MAGIC + bytes([VERSION]) \
            == b"REPROAT\x02"


def _v1_record_file(path, trace):
    """Write ``trace`` in the retired record-oriented v1 container."""
    rec = struct.Struct("<QQQBBBbbb")
    with open(path, "wb") as fh:
        fh.write(b"REPROTR1" + struct.pack("<I", len(trace)))
        for row in zip(trace.pc, trace.target, trace.mem_addr, trace.size,
                       trace.kind, trace.taken, trace.src1, trace.src2,
                       trace.dst):
            fh.write(rec.pack(*row))


def _v1_array_file(path, trace):
    """Write ``trace`` in the retired version-1 columnar container (the
    nine instruction columns, no sidecars)."""
    path.write_bytes(struct.pack("<7sBQ", MAGIC, 1, len(trace)) + b"".join(
        getattr(trace, name).tobytes() for name, _ in COLUMNS))


class TestRetiredContainers:
    def test_v1_record_file_rejected(self, tmp_path):
        path = tmp_path / "old.trace"
        _v1_record_file(path, _random_trace(20))
        with pytest.raises(TraceError, match="no longer read") as exc:
            read_trace(path)
        assert str(path) in str(exc.value)

    def test_v1_array_file_rejected(self, tmp_path):
        path = tmp_path / "old.atrace"
        _v1_array_file(path, _random_trace(20))
        with pytest.raises(TraceError, match="no longer read") as exc:
            read_trace(path)
        assert str(path) in str(exc.value)
