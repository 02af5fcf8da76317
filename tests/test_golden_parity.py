"""Golden-parity guard for simulator optimizations.

Hot-path optimizations (locals hoisting, cached-way lookups, telemetry
gating) must never change simulation semantics: ``SimResult.to_dict()``
has to stay bit-identical for the same workload, configuration and
``REPRO_SCALE``. The golden files under ``tests/golden/parity/`` were
recorded before the optimization pass of PR 3; this test re-simulates
each pinned (workload, config) pair and compares the full result dict —
counters, efficiency summary and extras — key for key.

Every entry point into the cycle loop is held to the same goldens: the
:func:`build_machine` factory, a :class:`Machine` built directly, and a
one-thread :func:`build_smt_machine`. Co-runs and degenerate traces have
goldens of their own.

Regenerate the goldens (only after an *intentional* semantics change,
together with a ``RESULTS_VERSION`` bump) with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_golden_parity.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import repro
from repro.cpu.machine import Machine, build_icache, build_machine
from repro.errors import ConfigurationError
from repro.params import CoreParams, MachineParams
from repro.smt import build_smt_machine
from repro.trace.arrays import ArrayTrace
from repro.trace.record import Instruction, InstrKind
from repro.trace.workloads import get_workload

GOLDEN_DIR = Path(__file__).parent / "golden" / "parity"

#: The pinned scale every golden was recorded at.
GOLDEN_SCALE = "0.05"

#: One workload per family x the two headline configurations.
GOLDEN_PAIRS = [
    ("server_000", "conv32"),
    ("server_000", "ubs"),
    ("client_000", "conv32"),
    ("client_000", "ubs"),
    ("spec_000", "conv32"),
    ("spec_000", "ubs"),
    ("google_000", "conv32"),
    ("google_000", "ubs"),
]

#: Two-thread co-runs: both headline configurations under round-robin
#: fetch arbitration, and UBS under ICOUNT.
CORUN_PAIRS = [
    ("smt:server_000+client_000", "conv32"),
    ("smt:server_000+client_000", "ubs"),
    ("smt:server_000+client_000@icount", "ubs"),
]


#: Front-end variants the headline pairs do not reach, keyed by test id:
#: the two non-FDIP prefetchers (their FDIP cursor stays at the BPU's),
#: FTQ depths shallow and deep enough to change when run-ahead stalls,
#: and a shallow FTQ shared by two threads under ICOUNT arbitration.
#: Each entry is (workload, config, prefetcher override or None).
VARIANT_RUNS = {
    "nextline": ("server_000", "conv32", "nextline"),
    "no_prefetch": ("server_000", "ubs", "none"),
    "ftq8": ("server_000", "conv32_f8", None),
    "ftq32": ("client_000", "ubs_f32", None),
    "icount_ftq8": ("smt:server_000+client_000@icount", "conv32_f8", None),
}


#: The remaining L1-I families on the server workload: a 64 KB and a
#: 16-way conventional cache, the GHRP/ACIC/SRRIP replacement variants
#: and the ideal (always-hit) L1-I.
FAMILY_CONFIGS = ("conv64", "conv32_16w", "conv32_ghrp", "conv32_acic",
                  "conv32_srrip", "conv32_drrip", "ideal")

#: L1-I model paths the headline pairs do not reach, on the server
#: workload: the small-block and distillation caches, a 16-way DSE point,
#: a UBS geometry without a 64-byte way (oversized runs are split), the
#: predictor's associative victim path (set-associative LRU and fully
#: associative) and the merge-gap path of ``extract_runs``.
L1I_MODEL_CONFIGS = ("small16", "distill32",
                     "ubs_v4.4.8.8.8.12.12.16.24.32.36.36.52.60.64.64",
                     "ubs_v8.16.24.32.48", "ubs_pred_sa8lru",
                     "ubs_pred_full", "ubs_gap8")


def _golden_path(workload: str, config: str) -> Path:
    safe = workload.replace("smt:", "smt_")
    return GOLDEN_DIR / f"{safe}__{config}__s{GOLDEN_SCALE}.json"


def _check_golden(path: Path, produced: dict, what: str) -> None:
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(produced, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"golden updated: {path.name}")
    assert path.exists(), (
        f"missing golden {path.name}; run with REPRO_UPDATE_GOLDENS=1"
    )
    golden = json.loads(path.read_text())
    assert produced == golden, (
        f"{what} drifted from its golden — simulation semantics changed "
        "(if intentional, bump RESULTS_VERSION and regenerate with "
        "REPRO_UPDATE_GOLDENS=1)"
    )


def _run_factory(trace, config, warmup, measure):
    return build_machine(trace, config).run(warmup, measure)


def _run_columnar(trace, config, warmup, measure):
    return Machine(trace, build_icache(config)).run(warmup, measure)


def _run_smt_solo(trace, config, warmup, measure):
    return build_smt_machine([trace], config).run([(warmup, measure)])


#: Entry points into the one cycle loop, keyed by test-id prefix (the
#: ``build_machine`` factory keeps the bare ``<workload>-<config>`` id).
ENTRY_POINTS = {
    "": _run_factory,
    "columnar": _run_columnar,
    "smt_solo": _run_smt_solo,
}


@pytest.fixture(autouse=True)
def pinned_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", GOLDEN_SCALE)


@pytest.mark.parametrize("entry,workload,config", [
    pytest.param(entry, workload, config,
                 id="-".join(p for p in (entry, workload, config) if p))
    for entry in ENTRY_POINTS for workload, config in GOLDEN_PAIRS
])
def test_bit_identical_to_golden(entry, workload, config):
    wl = get_workload(workload)
    result = ENTRY_POINTS[entry](wl.generate(), config, *wl.windows())
    result.workload = workload
    result.config = config
    _check_golden(_golden_path(workload, config), result.to_dict(),
                  f"{workload}/{config} via {entry or 'build_machine'}")


@pytest.mark.parametrize("workload,config", [
    pytest.param(workload, config,
                 id=f"{workload[len('smt:'):]}-{config}")
    for workload, config in CORUN_PAIRS
])
def test_smt_corun_bit_identical_to_golden(workload, config):
    """Two hardware threads sharing the front end: the composite result,
    including every thread's own result dict, is pinned."""
    result = repro.simulate(workload, config)
    _check_golden(_golden_path(workload, config), result.to_dict(),
                  f"{workload}/{config}")


@pytest.mark.parametrize("variant", sorted(VARIANT_RUNS))
def test_frontend_variant_bit_identical_to_golden(variant):
    workload, config, prefetcher = VARIANT_RUNS[variant]
    params = None
    if prefetcher is not None:
        params = MachineParams(core=CoreParams(prefetcher=prefetcher))
    result = repro.simulate(workload, config, params=params)
    result.workload = workload
    result.config = config
    suffix = f"__{prefetcher}" if prefetcher is not None else ""
    _check_golden(_golden_path(workload, config + suffix), result.to_dict(),
                  f"{workload}/{config} ({variant})")


@pytest.mark.parametrize("config", FAMILY_CONFIGS + L1I_MODEL_CONFIGS)
def test_config_family_bit_identical_to_golden(config):
    result = repro.simulate("server_000", config)
    result.workload = "server_000"
    result.config = config
    _check_golden(_golden_path("server_000", config), result.to_dict(),
                  f"server_000/{config}")


class TestEdgeTraces:
    """Degenerate traces through the precomputed range-stream and
    delivery-segment machinery, pinned against snapshots recorded with
    the scalar object-list walk before it was retired."""

    CONFIGS = ("conv32", "ubs")

    def _assert_golden(self, name, instrs, warmup, measure):
        trace = ArrayTrace.from_instructions(instrs)
        produced = {}
        for config in self.CONFIGS:
            result = _run_factory(trace, config, warmup, measure)
            result.workload = "edge"
            result.config = config
            produced[config] = result.to_dict()
        _check_golden(GOLDEN_DIR / f"edge__{name}.json", produced,
                      f"edge trace {name}")

    def test_empty_trace_rejected_on_both_paths(self):
        empty = ArrayTrace.from_instructions([])
        with pytest.raises(ConfigurationError, match="empty trace"):
            build_machine(empty, "conv32")
        with pytest.raises(ConfigurationError, match="empty trace"):
            Machine(empty, build_icache("conv32"))

    def test_single_instruction(self):
        self._assert_golden(
            "single_instruction",
            [Instruction(0x1000, 4, InstrKind.ALU)], 0, 1)

    def test_single_taken_branch(self):
        self._assert_golden(
            "single_taken_branch",
            [Instruction(0x1000, 4, InstrKind.JUMP, taken=True,
                         target=0x2000)], 0, 1)

    def test_all_branch_kinds(self):
        # Every instruction is a branch, cycling through every branch
        # kind; taken ones jump forward a block, the rest fall through.
        kinds = (InstrKind.BR_COND, InstrKind.JUMP, InstrKind.CALL,
                 InstrKind.RET, InstrKind.BR_IND, InstrKind.CALL_IND)
        instrs = []
        pc = 0x40_0000
        for i in range(240):
            kind = kinds[i % len(kinds)]
            taken = kind is not InstrKind.BR_COND or i % 2 == 0
            target = pc + 68 if taken else 0
            instrs.append(Instruction(pc, 4, kind, taken=taken,
                                      target=target))
            pc = target if taken else pc + 4
        self._assert_golden("all_branch_kinds", instrs, 40, 200)
