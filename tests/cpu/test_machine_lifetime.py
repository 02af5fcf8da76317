"""Per-trace state is shared and compact, and finished machines free
themselves.

Everything a machine derives from its trace alone (the BPU range stream,
its delivery chunks, the back-end op table) lives on ``trace.derived``
and is shared by every machine built on that trace. That state is held
in a constant number of GC-tracked objects, however long the trace. A
machine itself must be free of reference cycles: dropping the last
reference frees it at once, without waiting for the cyclic garbage
collector.
"""

import gc
import weakref
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.cpu.backend import Backend
from repro.cpu.machine import THREAD_ADDR_STRIDE, build_machine
from repro.memory.hierarchy import MemoryHierarchy
from repro.smt import build_smt_machine
from repro.telemetry import Telemetry
from repro.telemetry.profiler import StageProfiler
from repro.trace.synthesis import generate_trace

from ..conftest import small_spec

GOLDEN = Path(__file__).resolve().parents[1] / "golden"
WARMUP, MEASURE = 1000, 3000


@pytest.fixture(scope="module")
def trace():
    return generate_trace(small_spec(seed=5), WARMUP + MEASURE)


@pytest.fixture
def no_cyclic_gc():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _solo(trace):
    machine = build_machine(trace, "ubs")
    machine.run(WARMUP, MEASURE)
    return machine


def _profiled(trace):
    machine = build_machine(trace, "ubs",
                            telemetry=Telemetry(profiler=StageProfiler()))
    machine.run(WARMUP, MEASURE)
    assert machine.profile_report() is not None
    return machine


def _corun(trace):
    machine = build_smt_machine([trace, trace], "ubs", policy="icount")
    machine.run([(WARMUP, MEASURE)] * 2)
    return machine


class TestLifetime:
    @pytest.mark.parametrize("build", [_solo, _profiled, _corun],
                             ids=["machine", "profiled", "smt"])
    def test_finished_machine_dies_on_del(self, trace, build, no_cyclic_gc):
        machine = build(trace)
        assert machine.metrics()["machine.cycles"] > 0
        ref = weakref.ref(machine)
        del machine
        assert ref() is None


class TestSharing:
    def test_machines_on_one_trace_share_the_op_table(self, trace):
        a = build_machine(trace, "conv32")
        b = build_machine(trace, "ubs")
        assert a.threads[0].backend._ops is b.threads[0].backend._ops
        assert a.threads[0].stream is b.threads[0].stream

    def test_corun_threads_share_one_table_at_any_offset(self, trace):
        """The op table holds no data address, so co-run threads share one
        table whatever their offset; a lone thread's table (its L1-D
        outcomes folded in) is the other one."""
        first = build_smt_machine([trace, trace], "conv32")
        second = build_smt_machine([trace, trace, trace], "ubs")
        tables = {id(t.backend._ops)
                  for m in (first, second) for t in m.threads}
        assert len(tables) == 1
        assert second.threads[2].addr_offset == 2 * THREAD_ADDR_STRIDE
        solo = build_machine(trace, "conv32")
        smt_solo = build_smt_machine([trace], "ubs")
        assert solo.threads[0].backend._ops is \
            smt_solo.threads[0].backend._ops
        assert solo.threads[0].backend._ops is not \
            first.threads[0].backend._ops

    def test_op_table_interns_its_tuples(self):
        """Each distinct (lat, src1, src2, dst) tuple is stored once."""
        trace = generate_trace(small_spec(seed=5), 16000)
        ops = build_machine(trace, "conv32").threads[0].backend._ops
        assert len(ops) == len(trace) >= 16000
        assert len({id(op) for op in ops}) < len(ops) / 4


class TestPrivateL1D:
    """A lone thread's L1-D outcomes are folded into its op table."""

    def test_solo_run_never_touches_the_live_l1d(self, trace):
        machine = build_machine(trace, "ubs")
        hierarchy = machine.hierarchy

        def refuse(*args):
            raise AssertionError("solo run touched the hierarchy's L1-D")
        # Every bound entry point into the live L1-D.
        hierarchy._l1d_fill = refuse
        machine.threads[0].backend._l1d_touch = refuse
        machine.run(WARMUP, MEASURE)
        l1d = hierarchy.l1d
        assert l1d.hits == l1d.misses == 0
        assert not any(l1d.blocks)
        assert hierarchy.l2.hits + hierarchy.l2.misses > 0

    def test_l1d_gauges_match_a_live_l1d(self, trace):
        """A solo run's ``l1d.*`` gauges report what a live L1-D counts
        for the same instructions."""
        machine = build_machine(trace, "conv32")
        machine.run(WARMUP, MEASURE)
        solo = machine.metrics()
        backend = machine.threads[0].backend
        live = Backend(backend.params, MemoryHierarchy(machine.params))
        live.bind_trace(trace)
        live.accept(backend.instructions, 0)
        assert (solo["l1d.hits"], solo["l1d.misses"]) == \
            (live.hierarchy.l1d.hits, live.hierarchy.l1d.misses)
        assert solo["l1d.misses"] > 0


def _tracked_objects(root) -> int:
    """GC-tracked objects reachable from ``root``, classes excluded (an
    untracked container holds nothing tracked, so the walk stops there)."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type) \
                or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


class TestDerivedState:
    def test_first_build_adds_constant_tracked_objects(self):
        """The cyclic GC sees a trace's derived state as a handful of
        objects, not a few per fetch range: the count is the same for a
        trace four times longer."""
        counts = []
        for length in (4000, 16000):
            trace = generate_trace(small_spec(seed=5), length)
            gc.collect()
            before = _tracked_objects(trace.derived)
            build_machine(trace, "conv32")
            gc.collect()   # untracks tuples of plain ints, as a pass would
            counts.append(_tracked_objects(trace.derived) - before)
        assert counts[0] == counts[1]
        assert counts[1] <= 32


def test_metrics_out_bytes_pinned(tmp_path, monkeypatch, capsys):
    """``repro run server_001 ubs --metrics-out`` writes the bytes it
    wrote when the machine still stored its registry."""
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    out = tmp_path / "m.json"
    assert main(["run", "server_001", "ubs", "--metrics-out", str(out)]) == 0
    assert out.read_bytes() == \
        (GOLDEN / "metrics__server_001__ubs__s0.05.json").read_bytes()
