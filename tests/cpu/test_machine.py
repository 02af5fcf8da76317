"""Machine (full simulator) integration tests."""

import pytest

from repro.cpu.machine import Machine, build_icache
from repro.core.ubs_cache import UBSICache
from repro.errors import ConfigurationError
from repro.memory.distillation import DistillationICache
from repro.memory.icache import ConventionalICache
from repro.memory.small_block import SmallBlockICache
from repro.trace.arrays import ArrayTrace
from repro.trace.record import Instruction, InstrKind
from repro.trace.synthesis import generate_trace

from ..conftest import small_spec


def straight_trace(n, pc=0x1000):
    out = []
    for _ in range(n):
        out.append(Instruction(pc, 4, InstrKind.ALU, dst=1))
        pc += 4
    return ArrayTrace.from_instructions(out)


def loop_trace(iterations, body=256, pc=0x1000):
    """A tight loop whose body fits comfortably in the L1-I."""
    out = []
    for _ in range(iterations):
        p = pc
        for _ in range(body - 1):
            out.append(Instruction(p, 4, InstrKind.ALU, dst=1))
            p += 4
        out.append(Instruction(p, 4, InstrKind.BR_COND, taken=True,
                               target=pc))
    return ArrayTrace.from_instructions(out)


class TestStraightLine:
    def test_resident_loop_ipc_close_to_width(self):
        trace = loop_trace(40)
        machine = Machine(trace, build_icache("conv32"))
        result = machine.run(2000, 5000)
        # A cache-resident, predictable loop of independent ALU ops should
        # stream at close to the 4-wide fetch/commit width.
        assert result.ipc > 2.5
        assert result.frontend.fetch_stall_cycles < result.cycles * 0.05

    def test_cold_streaming_code_is_memory_bound(self):
        # Never-repeating code is compulsory-miss bound: FDIP cannot hide
        # DRAM latency with 8 MSHRs, so IPC collapses and the stalls are
        # attributed to the front-end.
        trace = straight_trace(8000)
        machine = Machine(trace, build_icache("conv32"))
        result = machine.run(2000, 5000)
        assert result.ipc < 2.0
        assert result.frontend.fetch_stall_cycles > 0
        assert result.extra["dram_accesses"] > 0

    def test_instruction_accounting(self):
        trace = straight_trace(5000)
        machine = Machine(trace, build_icache("conv32"))
        result = machine.run(1000, 3000)
        assert result.instructions == 3000
        assert result.cycles > 0

    def test_trace_too_short_rejected(self):
        machine = Machine(straight_trace(100), build_icache("conv32"))
        with pytest.raises(ConfigurationError):
            machine.run(100, 100)

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            Machine(ArrayTrace.from_instructions([]), build_icache("conv32"))


class TestSyntheticWorkload:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(small_spec(), 25_000)

    def test_deterministic(self, trace):
        r1 = Machine(trace, build_icache("conv32")).run(5000, 15000)
        r2 = Machine(trace, build_icache("conv32")).run(5000, 15000)
        assert r1.cycles == r2.cycles
        assert r1.frontend.fetch_stall_cycles == r2.frontend.fetch_stall_cycles

    def test_bigger_cache_never_slower(self, trace):
        small = Machine(trace, build_icache("conv16")).run(5000, 15000)
        big = Machine(trace, build_icache("conv64")).run(5000, 15000)
        assert big.ipc >= small.ipc * 0.99
        assert big.frontend.l1i_misses <= small.frontend.l1i_misses

    def test_stall_cycles_bounded_by_cycles(self, trace):
        r = Machine(trace, build_icache("conv32")).run(5000, 15000)
        fe = r.frontend
        assert 0 <= fe.fetch_stall_cycles <= r.cycles
        assert 0 <= fe.mispredict_stall_cycles <= r.cycles

    def test_efficiency_sampled(self, trace):
        r = Machine(trace, build_icache("conv32")).run(5000, 15000)
        assert r.efficiency is not None
        assert 0.0 < r.efficiency.mean <= 1.0

    def test_efficiency_can_be_disabled(self, trace):
        r = Machine(trace, build_icache("conv32")).run(
            5000, 15000, sample_efficiency=False)
        assert r.efficiency is None

    def test_ubs_partial_counters_surface(self, trace):
        r = Machine(trace, build_icache("ubs")).run(5000, 15000)
        fe = r.frontend
        assert fe.partial_misses == (fe.l1i_partial_missing
                                     + fe.l1i_partial_overrun
                                     + fe.l1i_partial_underrun)
        assert fe.partial_misses <= fe.l1i_misses + 1

    def test_block_count_reported(self, trace):
        r = Machine(trace, build_icache("ubs")).run(5000, 15000)
        assert r.extra["block_count"] > 0

    @pytest.mark.parametrize("config", [
        "conv32", "conv64", "conv32_ghrp", "conv32_acic", "distill32",
        "small16", "small32", "ubs", "ubs_pred_sa8fifo", "ubs_ways12c2",
    ])
    def test_all_configs_run(self, trace, config):
        r = Machine(trace, build_icache(config)).run(3000, 8000)
        assert r.instructions == 8000
        assert r.ipc > 0


class TestBuildICache:
    def test_conv_sizes(self):
        assert build_icache("conv32").params.size == 32 * 1024
        assert build_icache("conv192").params.size == 192 * 1024

    def test_conv_16w(self):
        ic = build_icache("conv32_16w")
        assert ic.ways == 16 and ic.sets == 32

    def test_policies(self):
        from repro.memory.ghrp import GHRPPolicy
        from repro.memory.acic import ACICFilter
        assert isinstance(build_icache("conv32_ghrp").policy, GHRPPolicy)
        assert isinstance(build_icache("conv32_acic").policy, ACICFilter)

    def test_types(self):
        assert isinstance(build_icache("distill32"), DistillationICache)
        assert isinstance(build_icache("small16"), SmallBlockICache)
        assert isinstance(build_icache("ubs"), UBSICache)
        assert isinstance(build_icache("conv32"), ConventionalICache)

    def test_ubs_budget(self):
        ic = build_icache("ubs_budget16")
        assert ic.sets == 32

    def test_ubs_predictor_variants(self):
        ic = build_icache("ubs_pred_full")
        assert ic.predictor.config.sets == 1
        assert ic.predictor.config.ways == 64

    def test_ubs_way_sweep(self):
        ic = build_icache("ubs_ways14c2")
        assert ic.n_ways == 14

    def test_unknown_config(self):
        with pytest.raises(ConfigurationError):
            build_icache("l4_quantum_cache")

    @pytest.mark.parametrize("config", [
        "conv32_x", "convX", "conv", "small_x", "ubs_budgetX", "ubs_waysXc1",
        "ubs_ways10", "ubs_ways10c", "ubs_gapX", "ubs_gap-1", "ubs_winX"])
    def test_malformed_number_is_configuration_error(self, config):
        """A name whose number does not parse is a bad configuration,
        not a bare ValueError (the daemon's submit check catches only
        ConfigurationError)."""
        with pytest.raises(ConfigurationError, match="malformed"):
            build_icache(config)
