"""Workload generator tests: builder structure and walker correctness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.trace.arrays import ArrayTrace
from repro.trace.program import TermKind
from repro.trace.record import IS_BRANCH, InstrKind, validate_trace
from repro.trace.synthesis import (
    ProgramBuilder,
    SynthesisSpec,
    TraceWalker,
    _ZipfSampler,
    generate_trace,
)

from ..conftest import small_spec


class TestSpecValidation:
    def test_unknown_isa(self):
        with pytest.raises(ConfigurationError):
            SynthesisSpec(isa="mips")

    def test_probabilities_over_one(self):
        with pytest.raises(ConfigurationError):
            SynthesisSpec(p_unit_cold=0.6, p_unit_call=0.5)

    def test_too_many_entry_points(self):
        with pytest.raises(ConfigurationError):
            SynthesisSpec(n_functions=10, n_entry_points=10)

    def test_granularity_tracks_isa(self):
        assert SynthesisSpec(isa="fixed4").instruction_granularity == 4
        assert SynthesisSpec(isa="variable").instruction_granularity == 1


class TestBuilder:
    def test_deterministic(self):
        spec = small_spec()
        p1 = ProgramBuilder(spec).build()
        p2 = ProgramBuilder(spec).build()
        assert p1.code_size == p2.code_size
        assert len(p1.functions) == len(p2.functions)
        for f1, f2 in zip(p1.functions, p2.functions):
            assert [b.instr_sizes for b in f1.blocks] == \
                [b.instr_sizes for b in f2.blocks]

    def test_seed_changes_program(self):
        p1 = ProgramBuilder(small_spec(seed=1)).build()
        p2 = ProgramBuilder(small_spec(seed=2)).build()
        assert p1.code_size != p2.code_size

    def test_every_function_ends_with_ret(self, tiny_program):
        for fn in tiny_program.functions[1:]:
            assert fn.blocks[-1].term == TermKind.RET

    def test_dispatcher_is_function_zero(self, tiny_program):
        dispatcher = tiny_program.functions[0]
        assert dispatcher.blocks[0].term == TermKind.ICALL
        assert dispatcher.blocks[0].callees == tiny_program.entry_points

    def test_call_graph_is_dag(self, tiny_program):
        for fn in tiny_program.functions:
            for block in fn.blocks:
                if block.term == TermKind.CALL:
                    assert block.callee > fn.index
                if block.term == TermKind.ICALL and fn.index > 0:
                    assert all(c > fn.index for c in block.callees)

    def test_fixed_isa_all_4byte(self, tiny_program):
        for fn in tiny_program.functions:
            for block in fn.blocks:
                assert all(s == 4 for s in block.instr_sizes)

    def test_variable_isa_sizes(self):
        program = ProgramBuilder(small_spec(isa="variable")).build()
        sizes = {s for fn in program.functions
                 for b in fn.blocks for s in b.instr_sizes}
        assert len(sizes) > 3
        assert all(2 <= s <= 15 for s in sizes)

    def test_cold_blocks_exist(self, tiny_program):
        cold = sum(b.size for fn in tiny_program.functions
                   for b in fn.blocks if b.is_cold)
        assert 0 < cold < tiny_program.code_size

    def test_bias_draws_in_range(self):
        builder = ProgramBuilder(small_spec())
        for _ in range(200):
            assert 0.0 < builder._draw_bias() < 1.0


class TestWalker:
    def test_trace_is_control_flow_continuous(self, tiny_trace):
        validate_trace(tiny_trace)

    def test_walker_deterministic(self, tiny_program):
        spec = small_spec()
        t1 = TraceWalker(tiny_program, spec).run(5000)
        t2 = TraceWalker(tiny_program, spec).run(5000)
        assert t1 == t2

    def test_requested_length_respected(self, tiny_program):
        trace = TraceWalker(tiny_program, small_spec()).run(5000)
        assert 5000 <= len(trace) < 5200

    def test_returns_match_calls(self, tiny_trace):
        depth = 0
        for kind in tiny_trace.kind:
            if kind in (InstrKind.CALL, InstrKind.CALL_IND):
                depth += 1
            elif kind == InstrKind.RET:
                depth -= 1
            assert depth >= -1  # dispatcher never returns
        assert depth >= 0

    def test_loads_have_addresses(self, tiny_trace):
        loads = [mem for kind, mem in zip(tiny_trace.kind, tiny_trace.mem_addr)
                 if kind == InstrKind.LOAD]
        assert loads
        assert all(mem > 0 for mem in loads)

    def test_branches_have_targets_when_taken(self, tiny_trace):
        for kind, taken, target in zip(tiny_trace.kind, tiny_trace.taken,
                                       tiny_trace.target):
            if IS_BRANCH[kind] and taken:
                assert target > 0

    def test_cold_code_rarely_executes(self, tiny_program):
        spec = small_spec()
        trace = TraceWalker(tiny_program, spec).run(20_000)
        cold_ranges = [(b.addr, b.end_addr) for fn in tiny_program.functions
                       for b in fn.blocks if b.is_cold]
        executed_cold = sum(
            1 for pc in trace.pc
            if any(lo <= pc < hi for lo, hi in cold_ranges[:50])
        )
        assert executed_cold < len(trace) * 0.05

    def test_generate_trace_helper(self):
        trace = generate_trace(small_spec(), 2000)
        assert isinstance(trace, ArrayTrace)
        assert validate_trace(trace) is trace
        assert len(trace) >= 2000

    def test_walk_is_columnar_and_continues_the_seed(self, tiny_program):
        """The walker builds owned columns (no object view is touched),
        and a second ``run`` on one walker continues its RNG stream while
        reusing the block slices the first one built."""
        spec = small_spec()
        walker = TraceWalker(tiny_program, spec)
        first = walker.run(3000)
        assert isinstance(first, ArrayTrace)
        assert not isinstance(first.pc, memoryview)
        assert all(s == -1 for s in first.src2)
        slices = dict(walker._block_cols)
        second = walker.run(3000)
        assert second != first
        assert all(walker._block_cols[b] is cols
                   for b, cols in slices.items())


class TestZipfSampler:
    def test_range(self):
        import random
        sampler = _ZipfSampler(10, 1.0)
        rng = random.Random(0)
        draws = [sampler.sample(rng) for _ in range(1000)]
        assert all(0 <= d < 10 for d in draws)

    def test_skew(self):
        import random
        sampler = _ZipfSampler(50, 1.0)
        rng = random.Random(0)
        draws = [sampler.sample(rng) for _ in range(5000)]
        first = draws.count(0)
        last = draws.count(49)
        assert first > 5 * max(1, last)

    @given(n=st.integers(1, 64), alpha=st.floats(0.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_always_in_bounds(self, n, alpha):
        import random
        sampler = _ZipfSampler(n, alpha)
        rng = random.Random(123)
        for _ in range(50):
            assert 0 <= sampler.sample(rng) < n
