"""A finished machine's metrics snapshot is pinned.

``tests/cpu/test_machine_lifetime.py`` pins ``repro run server_001 ubs
--metrics-out`` byte for byte. The two goldens here cover what that run
does not reach: a conventional L1-I (no ``l1i.partial_*`` or
``l1i.predictor.*`` keys) through the same CLI, and a two-thread co-run,
whose snapshot carries ``machine.threads`` and the ``thread.N.*`` keys,
has no ``frontend.*`` or ``bpu.*`` keys, and reads ``l1d.*`` from the
shared L1-D rather than a lone thread's back-end. The co-run golden is
the snapshot dict dumped in insertion order, so it pins the order of the
keys as well as their values.

Regenerate (only after an intentional change to a counter) with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/cpu/test_metrics_snapshots.py -q
"""

import json
import os
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.smt import build_smt_machine
from repro.trace.workloads import get_workload

GOLDEN = Path(__file__).resolve().parents[1] / "golden"
SCALE = "0.05"


@pytest.fixture(autouse=True)
def pinned_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", SCALE)


def _check(path: Path, text: str) -> None:
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        path.write_text(text)
        pytest.skip(f"golden updated: {path.name}")
    assert text == path.read_text()


def test_conv32_metrics_out_pinned(tmp_path):
    out = tmp_path / "m.json"
    assert main(["run", "server_001", "conv32",
                 "--metrics-out", str(out)]) == 0
    _check(GOLDEN / f"metrics__server_001__conv32__s{SCALE}.json",
           out.read_text())


def test_corun_snapshot_pinned():
    workloads = [get_workload(name) for name in ("server_000", "client_000")]
    machine = build_smt_machine([w.generate() for w in workloads], "ubs",
                                policy="icount")
    machine.run([w.windows() for w in workloads])
    snapshot = machine.metrics()
    assert {"machine.threads", "thread.0.instructions_delivered",
            "thread.1.arb_lost_cycles"} <= set(snapshot)
    _check(GOLDEN / f"metrics__smt_server_000+client_000@icount__ubs"
                    f"__s{SCALE}.json",
           json.dumps(snapshot, indent=2) + "\n")
