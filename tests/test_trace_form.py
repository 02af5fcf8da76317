"""Contract: the simulator runs on the columnar trace form only.

Machines read an :class:`~repro.trace.arrays.ArrayTrace`'s columns — the
range-stream walk, the back-end's fused op tables and the cycle loop —
and never its per-instruction object view. With that view made to raise,
every L1-I family must still build and run, solo and in a co-run, with
and without telemetry. The trace producers — synthesis, the suite's
workloads and the ChampSim importer and exporter — write and read the
columns directly and construct no :class:`Instruction` at all.
"""

import pytest

from repro.cpu.machine import build_machine
from repro.smt import build_smt_machine
from repro.telemetry import EventTrace, StageProfiler, Telemetry
from repro.trace.arrays import ArrayTrace
from repro.trace.champsim import read_champsim, write_champsim
from repro.trace.record import Instruction
from repro.trace.synthesis import generate_trace
from repro.trace.workloads import get_workload

from .conftest import small_spec

CONFIGS = ["conv32", "ubs", "small16", "distill32", "ideal", "conv32_ghrp"]
WINDOW = (500, 2000)


@pytest.fixture(scope="module")
def traces():
    return [generate_trace(small_spec(seed=seed), 3000) for seed in (1, 2)]


@pytest.fixture(autouse=True)
def no_object_view(monkeypatch):
    def forbidden(self, *args):
        raise AssertionError("the simulator used the ArrayTrace object view")

    monkeypatch.setattr(ArrayTrace, "__getitem__", forbidden)
    monkeypatch.setattr(ArrayTrace, "__iter__", forbidden)


def telemetry(observed):
    if not observed:
        return None
    return Telemetry(EventTrace(), profiler=StageProfiler())


@pytest.mark.parametrize("observed", [False, True],
                         ids=["plain", "observed"])
@pytest.mark.parametrize("config", CONFIGS)
def test_solo_run_reads_columns_only(traces, config, observed):
    machine = build_machine(traces[0], config, telemetry(observed))
    result = machine.run(*WINDOW)
    assert result.instructions == WINDOW[1]


@pytest.mark.parametrize("observed", [False, True],
                         ids=["plain", "observed"])
def test_corun_reads_columns_only(traces, observed):
    machine = build_smt_machine(traces, "ubs", telemetry(observed),
                                policy="icount")
    result = machine.run([WINDOW, WINDOW])
    assert [t["instructions"] for t in result.extra["threads"]] \
        == [WINDOW[1], WINDOW[1]]


def test_producers_build_no_instruction_objects(monkeypatch, tmp_path):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("a trace producer built an Instruction")

    monkeypatch.setattr(Instruction, "__init__", forbidden)
    monkeypatch.setenv("REPRO_SCALE", "0.02")
    trace = generate_trace(small_spec(seed=3), 3000)
    for generated in (get_workload("google_000").generate(),
                     get_workload("spec_000").generate()):
        assert len(generated) >= 3000
    path = tmp_path / "t.champsim.gz"
    assert write_champsim(path, trace) == len(trace)
    back = read_champsim(path)
    assert back.pc == trace.pc
    assert read_champsim(path, limit=100).pc == trace.pc[:100]
