"""Cross-module property-based tests (hypothesis).

These drive the full front-end with randomly parameterised synthetic
programs and check the invariants that must hold regardless of workload.
"""

from hypothesis import given, settings, strategies as st

from repro.cpu.machine import Machine, build_icache
from repro.frontend.bpu import BranchPredictionUnit
from repro.frontend.ftq import precompute_range_stream
from repro.trace.record import validate_trace
from repro.trace.synthesis import ProgramBuilder, SynthesisSpec, TraceWalker

from .range_view import range_rows


@st.composite
def specs(draw):
    # Draw raw unit weights and normalise so their sum stays below 1.
    cold = draw(st.floats(0.1, 0.45))
    call = draw(st.floats(0.05, 0.25))
    vcall = draw(st.floats(0.0, 0.04))
    loop = draw(st.floats(0.0, 0.2))
    ifelse = draw(st.floats(0.05, 0.2))
    straight = draw(st.floats(0.0, 0.1))
    total = cold + call + vcall + loop + ifelse + straight
    scale = min(1.0, 0.95 / total)
    return SynthesisSpec(
        name="prop",
        seed=draw(st.integers(0, 10_000)),
        isa=draw(st.sampled_from(["fixed4", "variable"])),
        n_functions=draw(st.integers(20, 120)),
        n_entry_points=draw(st.integers(2, 10)),
        units_per_function_mean=draw(st.floats(3.0, 7.0)),
        hot_block_instrs_mean=draw(st.floats(2.5, 8.0)),
        p_unit_cold=cold * scale,
        p_unit_call=call * scale,
        p_unit_vcall=vcall * scale,
        p_unit_loop=loop * scale,
        p_unit_ifelse=ifelse * scale,
        p_unit_straight=straight * scale,
        loop_trips_mean=draw(st.floats(2.0, 20.0)),
        zipf_alpha=draw(st.floats(0.3, 1.2)),
    )


class TestGeneratorProperties:
    @given(spec=specs())
    @settings(max_examples=15, deadline=None)
    def test_traces_always_control_flow_continuous(self, spec):
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(4000)
        validate_trace(trace)

    @given(spec=specs())
    @settings(max_examples=10, deadline=None)
    def test_fetch_ranges_partition_any_trace(self, spec):
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(3000)
        stream = precompute_range_stream(trace, BranchPredictionUnit())
        delivered = 0
        for fr in range_rows(stream):
            assert fr.first_index == delivered
            delivered += fr.n_instrs
            assert fr.start >> 6 == (fr.end - 1) >> 6
            assert 0 < fr.nbytes <= 64
        assert delivered == len(trace)


class TestMachineProperties:
    @given(spec=specs(), config=st.sampled_from(["conv32", "ubs", "small32"]))
    @settings(max_examples=8, deadline=None)
    def test_machine_finishes_and_accounts(self, spec, config):
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(6000)
        machine = Machine(trace, build_icache(config))
        result = machine.run(1500, 4000)
        assert result.instructions == 4000
        assert result.cycles >= 4000 // 4  # cannot beat the commit width
        fe = result.frontend
        assert fe.l1i_hits >= 0 and fe.l1i_misses >= 0
        assert fe.fetch_stall_cycles + fe.mispredict_stall_cycles \
            <= result.cycles

    @given(spec=specs())
    @settings(max_examples=6, deadline=None)
    def test_ubs_storage_invariants_after_real_traffic(self, spec):
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(6000)
        machine = Machine(trace, build_icache("ubs"))
        machine.run(1500, 4000)
        ubs = machine.icache
        used, stored = ubs.storage_snapshot()
        assert 0 <= used <= stored
        for set_idx in range(ubs.sets):
            for w in range(ubs.n_ways):
                tag = ubs._tags[set_idx][w]
                if tag is None:
                    continue
                start = ubs._start[set_idx][w]
                assert 0 <= start <= 64 - ubs.way_sizes[w]
                span_mask = ((1 << ubs.way_sizes[w]) - 1) << start
                assert ubs._useful[set_idx][w] & ~span_mask == 0
                assert not ubs.predictor.contains(tag)
