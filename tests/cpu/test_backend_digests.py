"""The back-end's timing and the data hierarchy's state are pinned.

For three workloads of different footprint, a 20K-instruction trace is
run solo and as a two-thread co-run with the next workload. Every
delivery to a back-end is recorded as ``(thread, complete, commit)``, in
delivery order, and hashed; the final ``l1d.*``, ``l2.*``, ``l3.*`` and
``dram.*`` gauges are compared value for value. Both are recorded in
``tests/golden/backend_digests.json``.

A change to how the back-end times loads and stores (how its op table is
built, where the L1-D outcome comes from, which address reaches the
L2/L3/DRAM and in which order) shows up here, workload by workload, even
where it happens to leave the end-to-end cycle counts of the parity
goldens unchanged.

Regenerate (only after an intentional semantics change) with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/cpu/test_backend_digests.py -q
"""

import hashlib
import json
import os
from array import array
from pathlib import Path

import pytest

from repro.cpu.machine import build_machine
from repro.smt import build_smt_machine
from repro.trace.synthesis import generate_trace
from repro.trace.workloads import get_workload

GOLDEN_PATH = (Path(__file__).resolve().parents[1] / "golden"
               / "backend_digests.json")
WORKLOADS = ("server_000", "client_000", "spec_000")
LENGTH = 20_000
WARMUP, MEASURE = 5_000, 15_000
CONFIG = "conv32"
GAUGE_PREFIXES = ("l1d.", "l2.", "l3.", "dram.")


@pytest.fixture(scope="module")
def traces():
    return {name: generate_trace(get_workload(name).spec, LENGTH)
            for name in WORKLOADS}


def _record_deliveries(machine) -> list:
    """Wrap every thread's delivery callable; returns the shared log."""
    log = []
    for t in machine.threads:
        def accept(*args, _inner=t.accept, _tid=t.tid):
            complete, commit = _inner(*args)
            log.append((_tid, complete, commit))
            return complete, commit
        t.accept = accept
    return log


def _fingerprint(machine, log) -> dict:
    h = hashlib.blake2b(digest_size=16)
    h.update(array("q", [v for row in log for v in row]).tobytes())
    snapshot = machine.metrics()
    return {
        "deliveries": len(log),
        "digest": h.hexdigest(),
        "hierarchy": {k: v for k, v in sorted(snapshot.items())
                      if k.startswith(GAUGE_PREFIXES)},
    }


def _solo(traces, name):
    machine = build_machine(traces[name], CONFIG)
    log = _record_deliveries(machine)
    machine.run(WARMUP, MEASURE)
    return _fingerprint(machine, log)


def _corun(traces, name):
    partner = WORKLOADS[(WORKLOADS.index(name) + 1) % len(WORKLOADS)]
    machine = build_smt_machine([traces[name], traces[partner]], CONFIG)
    log = _record_deliveries(machine)
    machine.run([(WARMUP, MEASURE)] * 2)
    return _fingerprint(machine, log)


RUNS = {"solo": _solo, "corun": _corun}


@pytest.mark.parametrize("mode", sorted(RUNS))
@pytest.mark.parametrize("name", WORKLOADS)
def test_backend_digest(traces, name, mode):
    produced = RUNS[mode](traces, name)
    key = f"{name}/{mode}"
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        golden = (json.loads(GOLDEN_PATH.read_text())
                  if GOLDEN_PATH.exists() else {})
        golden[key] = produced
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                               + "\n")
        pytest.skip(f"golden updated: {key}")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert produced == golden[key]
