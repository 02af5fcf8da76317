"""Columnar (structure-of-arrays) trace codec tests."""

import struct

import pytest

from repro.errors import TraceError
from repro.trace.arrays import (
    ArrayTrace,
    COLUMNS,
    MAGIC,
    SUPPORTED_VERSIONS,
    V2_COLUMNS,
    VERSION,
    serialized_nbytes,
)
from repro.trace.io import read_trace, write_trace
from repro.trace.record import IS_BRANCH, Instruction, InstrKind

from ..trace_columns import columns, record_columns
from .test_io import _random_records


@pytest.fixture
def trace500():
    return _random_records(500, seed=3)


class TestConstruction:
    def test_from_instructions_roundtrip(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        assert len(at) == 500
        assert columns(at) == record_columns(trace500)
        assert at != trace500          # no equality with a record list

    def test_from_instructions_returns_array_trace_unchanged(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        assert ArrayTrace.from_instructions(at) is at
        assert ArrayTrace.from_instructions(trace500) == at

    def test_read_only(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        with pytest.raises(AttributeError):
            at.pc = None
        with pytest.raises(TypeError):
            hash(at)


class TestCodec:
    def test_bytes_roundtrip(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        data = at.to_bytes()
        assert len(data) == at.nbytes == serialized_nbytes(500)
        back = ArrayTrace.from_buffer(data)
        assert back == at
        assert columns(back) == record_columns(trace500)

    def test_empty_trace_roundtrip(self):
        at = ArrayTrace.from_instructions([])
        back = ArrayTrace.from_buffer(at.to_bytes())
        assert len(back) == 0
        assert back == at

    def test_max_width_fields(self):
        """Every column survives its extreme representable values."""
        u64max = (1 << 64) - 1
        ins = Instruction(u64max, 255, InstrKind.CALL_IND, taken=True,
                          target=u64max, src1=127, src2=-128, dst=-1,
                          mem_addr=u64max)
        at = ArrayTrace.from_instructions([ins])
        back = ArrayTrace.from_buffer(at.to_bytes())
        assert columns(back) == record_columns([ins])

    def test_version_mismatch_rejected(self, trace500):
        data = bytearray(ArrayTrace.from_instructions(trace500).to_bytes())
        data[len(MAGIC)] = VERSION + 1
        with pytest.raises(TraceError, match="version"):
            ArrayTrace.from_buffer(bytes(data))

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceError, match="magic"):
            ArrayTrace.from_buffer(b"NOTATRC" + b"\x00" * 32)

    def test_truncated_rejected(self, trace500):
        data = ArrayTrace.from_instructions(trace500).to_bytes()
        with pytest.raises(TraceError, match="truncated"):
            ArrayTrace.from_buffer(data[:-5])
        with pytest.raises(TraceError, match="header"):
            ArrayTrace.from_buffer(data[:10])

    def test_from_buffer_is_zero_copy(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        view = ArrayTrace.from_buffer(at.to_bytes())
        for name, _fmt in COLUMNS:
            assert isinstance(getattr(view, name), memoryview)
        assert view == at

    def test_column_order_and_magic_stable(self):
        # On-disk format compatibility: changing either breaks old caches.
        assert MAGIC == b"REPROAT"
        assert tuple(name for name, _ in COLUMNS) == (
            "pc", "target", "mem_addr", "size", "kind", "taken",
            "src1", "src2", "dst")
        assert VERSION == 2
        assert SUPPORTED_VERSIONS == (2,)
        assert tuple(name for name, _ in V2_COLUMNS) == (
            "pc", "target", "mem_addr", "end", "boundary",
            "size", "kind", "taken", "src1", "src2", "dst")


class TestSidecars:
    """The v2 container's derived columns; v1 buffers are rejected."""

    def test_sidecar_semantics(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        n = len(at)
        for i in range(n):
            assert at.end[i] == at.pc[i] + at.size[i]
            b = at.boundary[i]
            assert i <= b < n
            # No walk boundary strictly before b…
            for j in range(i, b):
                assert not IS_BRANCH[at.kind[j]]
                assert at.pc[j + 1] == at.end[j]
            # …and b itself is one (branch, discontinuity, or the end).
            assert (IS_BRANCH[at.kind[b]] or b == n - 1
                    or at.pc[b + 1] != at.end[b])

    def test_python_sidecar_fallback_matches(self, trace500):
        from repro.trace.arrays import _build_sidecars, _sidecars_python

        at = ArrayTrace.from_instructions(trace500)
        end, boundary = _build_sidecars(at.pc, at.size, at.kind, len(at))
        end_py, boundary_py = _sidecars_python(at.pc, at.size, at.kind,
                                               len(at))
        assert end.tobytes() == end_py.tobytes()
        assert boundary.tobytes() == boundary_py.tobytes()

    def test_v1_buffer_rejected(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        # Hand-build a version-1 container (nine base columns, no
        # sidecars) as an older host would have serialised it.
        v1 = struct.pack("<7sBQ", MAGIC, 1, len(at)) + b"".join(
            getattr(at, name).tobytes() for name, _ in COLUMNS)
        with pytest.raises(TraceError, match="no longer read"):
            ArrayTrace.from_buffer(v1)

    def test_serialized_nbytes_counts_sidecars(self):
        # 16-byte header, 30 bytes of instruction columns plus the u64
        # end and u32 boundary sidecars per instruction.
        assert serialized_nbytes(0) == 16
        assert serialized_nbytes(100) == 16 + 100 * (30 + 12)


class TestIOIntegration:
    def test_write_trace_dispatches_to_v2(self, tmp_path, trace500):
        at = ArrayTrace.from_instructions(trace500)
        path = tmp_path / "t.atrace"
        assert write_trace(path, at) == 500
        assert path.read_bytes()[:len(MAGIC)] == MAGIC
        back = read_trace(path)
        assert isinstance(back, ArrayTrace)
        assert back == at

    def test_v2_gzip_roundtrip(self, tmp_path, trace500):
        at = ArrayTrace.from_instructions(trace500)
        path = tmp_path / "t.atrace.gz"
        write_trace(path, at)
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        assert read_trace(path) == at

    def test_corrupt_v2_raises_trace_error(self, tmp_path, trace500):
        path = tmp_path / "t.atrace"
        write_trace(path, ArrayTrace.from_instructions(trace500))
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(TraceError, match="truncated"):
            read_trace(path)
