"""The range stream and its delivery chunks are pinned column by column.

For three workloads of different footprint, the BPU walk over a short
trace must produce the fetch ranges (start, nbytes, first index,
instruction count, resteer code, cumulative conditional lookups and
mispredicts) and the per-cycle delivery chunks (chunk offsets per range,
chunk end bytes, instructions delivered) whose digests are recorded in
``tests/golden/range_stream_digests.json``. The digests were recorded
from the object-per-range walk the columns replaced; each column is
hashed as little-endian int64 values, so the typecodes the simulator
picks do not enter the digest.
"""

import hashlib
import json
from array import array
from pathlib import Path

import pytest

from repro.frontend.bpu import BranchPredictionUnit
from repro.frontend.ftq import precompute_range_stream, segment_stream
from repro.trace.synthesis import generate_trace
from repro.trace.workloads import get_workload

from ..range_view import RangeRow

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "golden"
                     / "range_stream_digests.json").read_text())


def digest(columns) -> str:
    h = hashlib.blake2b(digest_size=16)
    for column in columns:
        h.update(array("q", column).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN["workloads"]))
def test_range_stream_and_chunks_digest(name):
    pinned = GOLDEN["workloads"][name]
    trace = generate_trace(get_workload(name).spec, GOLDEN["length"])
    stream = precompute_range_stream(trace, BranchPredictionUnit())
    chunks = segment_stream(trace, stream, GOLDEN["fetch_bytes"],
                            GOLDEN["fetch_width"])
    assert len(stream) == pinned["ranges"]
    assert len(chunks.end) == pinned["chunks"]
    assert digest(getattr(stream, f) for f in RangeRow._fields) \
        == pinned["range_digest"]
    assert digest((chunks.offset, chunks.end, chunks.delivered)) \
        == pinned["chunk_digest"]
