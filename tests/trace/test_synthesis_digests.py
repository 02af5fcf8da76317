"""Synthesis is pinned byte for byte.

For every workload of every family (the ``isa="variable"`` ones
included), the serialised ``.atrace`` bytes of a short walk must hash to
the digest recorded in ``tests/golden/atrace_digests.json``. The digests
were recorded with the object-per-instruction walker that the columnar
one replaced, so any change to the RNG draw order, a column value or the
block-boundary stop shows up here. Re-record them only for an intended
change to the generated workloads.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.trace.synthesis import generate_trace
from repro.trace.workloads import all_families, suite

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "golden"
                     / "atrace_digests.json").read_text())
WORKLOADS = {w.name: w for w in suite(all_families())}


def test_every_workload_is_pinned():
    assert sorted(GOLDEN["workloads"]) == sorted(WORKLOADS)
    assert {w.spec.isa for w in WORKLOADS.values()} == {"fixed4", "variable"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_atrace_bytes_digest(name):
    trace = generate_trace(WORKLOADS[name].spec, GOLDEN["length"])
    digest = hashlib.blake2b(trace.to_bytes(), digest_size=16).hexdigest()
    assert digest == GOLDEN["workloads"][name]
