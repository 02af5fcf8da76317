"""Contract: the columnar trace form is the only one.

:class:`~repro.trace.arrays.ArrayTrace` has no per-instruction object
view to read back, and :class:`~repro.trace.record.Instruction` is only
the input record of :meth:`ArrayTrace.from_instructions`: no other module
of the package imports it. Every L1-I family builds and runs on the
columns, solo and in a co-run, with and without telemetry. The trace
producers — synthesis, the suite's workloads and the ChampSim importer
and exporter — write and read the columns directly and construct no
:class:`Instruction` at all.
"""

import ast
from collections.abc import Sequence
from pathlib import Path

import pytest

import repro
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


#: The modules that may name ``Instruction``: its definition, the one
#: converter that consumes it, and the package's re-export.
INSTRUCTION_MODULES = {"trace/record.py", "trace/arrays.py",
                       "trace/__init__.py"}


def test_array_trace_has_no_object_view():
    for name in ("__getitem__", "__iter__", "to_instructions"):
        assert not hasattr(ArrayTrace, name), name
    assert not issubclass(ArrayTrace, Sequence)


def test_only_the_trace_package_imports_instruction():
    root = Path(repro.__file__).parent
    users = set()
    for path in root.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            if "Instruction" in names:
                users.add(path.relative_to(root).as_posix())
    assert users <= INSTRUCTION_MODULES, sorted(users - INSTRUCTION_MODULES)
    assert "trace/arrays.py" in users


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
