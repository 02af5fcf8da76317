"""Synthesis is pinned byte for byte.

For every workload of every family (the ``isa="variable"`` ones
included), the serialised ``.atrace`` bytes of a short walk must hash to
the digest recorded in ``tests/golden/atrace_digests.json``. The digests
were recorded with the object-per-instruction walker that the columnar
one replaced, so any change to the RNG draw order, a column value or the
block-boundary stop shows up here. Re-record them only for an intended
change to the generated workloads.

A short walk visits few blocks twice, so the first workload of each
family is also pinned at 100K instructions
(``tests/golden/atrace_long_digests.json``), where most blocks are
revisited and the walk's per-visit state (loop counters, the call stack,
the recent-destination window) is exercised at length. Those digests
were recorded with the walker that drew through ``Random.randrange``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.trace.synthesis import generate_trace
from repro.trace.workloads import all_families, suite

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "atrace_digests.json").read_text())
LONG = json.loads((GOLDEN_DIR / "atrace_long_digests.json").read_text())
WORKLOADS = {w.name: w for w in suite(all_families())}


def test_every_workload_is_pinned():
    assert sorted(GOLDEN["workloads"]) == sorted(WORKLOADS)
    assert {w.spec.isa for w in WORKLOADS.values()} == {"fixed4", "variable"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_atrace_bytes_digest(name):
    trace = generate_trace(WORKLOADS[name].spec, GOLDEN["length"])
    digest = hashlib.blake2b(trace.to_bytes(), digest_size=16).hexdigest()
    assert digest == GOLDEN["workloads"][name]


def test_every_family_is_pinned_at_length():
    families = {WORKLOADS[name].family for name in LONG["workloads"]}
    assert families == set(all_families())
    assert LONG["length"] == 100_000


@pytest.mark.parametrize("name", sorted(LONG["workloads"]))
def test_long_walk_digest(name):
    trace = generate_trace(WORKLOADS[name].spec, LONG["length"])
    digest = hashlib.blake2b(trace.to_bytes(), digest_size=16).hexdigest()
    assert digest == LONG["workloads"][name]
