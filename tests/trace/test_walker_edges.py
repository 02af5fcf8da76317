"""Walker edge cases and statistical properties."""

from collections import Counter

from repro.trace.program import BasicBlock, Function, Program, TermKind
from repro.trace.record import InstrKind
from repro.trace.synthesis import (
    GLOBAL_BASE,
    STACK_BASE,
    ProgramBuilder,
    TraceWalker,
)

from ..conftest import small_spec


def _leaf_function(index):
    return Function(index, [
        BasicBlock(0, [4, 4], [InstrKind.ALU, InstrKind.RET], TermKind.RET),
    ])


def _dispatcher(entries):
    return Function(0, [
        BasicBlock(0, [4, 4], [InstrKind.ALU, InstrKind.CALL_IND],
                   TermKind.ICALL, callees=tuple(entries), fall_succ=1),
        BasicBlock(1, [4, 4], [InstrKind.ALU, InstrKind.JUMP],
                   TermKind.JUMP, taken_succ=0),
    ])


class TestHandBuiltPrograms:
    def test_minimal_dispatcher_loop(self):
        program = Program([_dispatcher([1]), _leaf_function(1)],
                          entry_points=(1,))
        spec = small_spec()
        trace = TraceWalker(program, spec).run(100)
        kinds = Counter(trace.kind)
        assert kinds[InstrKind.CALL_IND] > 0
        assert kinds[InstrKind.RET] == kinds[InstrKind.CALL_IND] \
            or abs(kinds[InstrKind.RET] - kinds[InstrKind.CALL_IND]) <= 1

    def test_ret_without_stack_restarts_dispatcher(self):
        # A program whose entry function is the dispatcher itself: walking
        # a bare RET must not crash.
        ret_fn = Function(0, [
            BasicBlock(0, [4, 4], [InstrKind.ALU, InstrKind.RET],
                       TermKind.RET),
        ])
        program = Program([ret_fn], entry_points=())
        trace = TraceWalker(program, small_spec()).run(50)
        assert len(trace) >= 50

    def test_loop_trips_respected(self):
        body = BasicBlock(0, [4, 4], [InstrKind.ALU, InstrKind.BR_COND],
                          TermKind.LOOP, taken_succ=0, fall_succ=1,
                          loop_mean=5.0)
        tail = BasicBlock(1, [4, 4], [InstrKind.ALU, InstrKind.RET],
                          TermKind.RET)
        program = Program([_dispatcher([1]), Function(1, [body, tail])],
                          entry_points=(1,))
        trace = TraceWalker(program, small_spec()).run(200)
        latch_taken = [taken for kind, taken in zip(trace.kind, trace.taken)
                       if kind == InstrKind.BR_COND]
        # Back edge taken exactly trips-1 times per activation, then exits.
        takens = sum(latch_taken)
        exits = latch_taken.count(0)
        assert exits > 0
        # 5 trips => 4 taken per not-taken exit (the trace may cut off
        # mid-activation, so allow a partial final loop).
        assert abs(takens - 4 * exits) <= 4


class TestMemoryAddressStreams:
    def test_stack_and_global_regions(self, tiny_trace):
        loads = [mem for kind, mem in zip(tiny_trace.kind, tiny_trace.mem_addr)
                 if kind in (InstrKind.LOAD, InstrKind.STORE)]
        stack = [a for a in loads if a > STACK_BASE - (1 << 20)]
        heap = [a for a in loads if GLOBAL_BASE <= a < GLOBAL_BASE + (1 << 26)]
        assert stack and heap
        assert len(stack) + len(heap) == len(loads)

    def test_heap_addresses_within_footprint(self):
        spec = small_spec(data_footprint=1 << 16)
        program = ProgramBuilder(spec).build()
        trace = TraceWalker(program, spec).run(5000)
        heap = [mem - GLOBAL_BASE
                for kind, mem in zip(trace.kind, trace.mem_addr)
                if kind in (InstrKind.LOAD, InstrKind.STORE)
                and GLOBAL_BASE <= mem < GLOBAL_BASE + (1 << 30)]
        assert heap
        assert max(heap) < (1 << 16) + 64


class TestIndirectTargetSkew:
    def test_vcall_sites_prefer_dominant_target(self):
        spec = small_spec(p_unit_vcall=0.15, p_unit_call=0.05, seed=21,
                          n_functions=40)
        program = ProgramBuilder(spec).build()
        trace = TraceWalker(program, spec).run(40_000)
        # Group indirect-call executions by site; check distribution skew.
        per_site = {}
        for kind, pc, target in zip(trace.kind, trace.pc, trace.target):
            if kind == InstrKind.CALL_IND:
                per_site.setdefault(pc, Counter())[target] += 1
        hot_sites = [c for c in per_site.values() if sum(c.values()) > 30
                     and len(c) > 1]
        assert hot_sites, "expected exercised polymorphic call sites"
        skewed = sum(1 for c in hot_sites
                     if c.most_common(1)[0][1] > 0.5 * sum(c.values()))
        assert skewed >= len(hot_sites) * 0.5
