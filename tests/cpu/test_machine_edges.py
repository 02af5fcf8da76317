"""Machine edge cases: skip-ahead equivalence, variable ISA, tiny queues."""

import pytest

from repro.cpu.machine import Machine, build_icache
from repro.params import CoreParams, MachineParams
from repro.smt import SMTMachine
from repro.trace.synthesis import ProgramBuilder, TraceWalker

from ..conftest import small_spec


class TestSkipAheadEquivalence:
    """The stall fast-forward is a pure optimisation: disabling it must
    not change a single cycle or counter, solo or co-running."""

    @staticmethod
    def _counters(result):
        d = result.to_dict()
        threads = d["extra"].get("threads", [])
        return (d["cycles"], d["frontend"],
                [(t["cycles"], t["frontend"], t["extra"]["arb_lost_cycles"])
                 for t in threads])

    @staticmethod
    def _traces(n):
        """``n`` walks of one program (the first with the spec's seed)."""
        spec = small_spec(seed=99, n_functions=300, n_entry_points=24)
        program = ProgramBuilder(spec).build()
        return [TraceWalker(program, spec, seed=k or None).run(20_000)
                for k in range(n)]

    def _assert_skip_is_invisible(self, fast, slow, run):
        skipped = []
        skip = fast._skip_stalls

        def counting(cycle, live):
            resumed = skip(cycle, live)
            skipped.append(resumed - cycle)
            return resumed

        fast._skip_stalls = counting
        slow._skip_stalls = lambda cycle, live: cycle  # disable
        assert self._counters(run(fast)) == self._counters(run(slow))
        assert max(skipped) > 0, "the run never fast-forwarded"

    @pytest.mark.parametrize("config", ["conv32", "ubs"])
    def test_identical_results(self, config):
        trace, = self._traces(1)
        self._assert_skip_is_invisible(
            Machine(trace, build_icache(config)),
            Machine(trace, build_icache(config)),
            lambda machine: machine.run(4000, 12_000))

    @pytest.mark.parametrize("config", ["conv32", "ubs"])
    def test_identical_corun_results(self, config):
        traces = self._traces(2)
        self._assert_skip_is_invisible(
            SMTMachine(traces, build_icache(config)),
            SMTMachine(traces, build_icache(config)),
            lambda machine: machine.run([(4000, 12_000)] * 2))


class TestVariableISA:
    def test_variable_isa_machine_run(self):
        spec = small_spec(isa="variable", seed=5)
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(15_000)
        result = Machine(trace, build_icache("conv32")).run(3000, 10_000)
        assert result.instructions == 10_000
        assert result.ipc > 0

    def test_variable_isa_on_ubs_uses_byte_granularity(self):
        from repro.core.ubs_cache import UBSICache
        from repro.params import UBSParams
        spec = small_spec(isa="variable", seed=5)
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(15_000)
        cache = UBSICache(UBSParams(instruction_granularity=1))
        result = Machine(trace, cache).run(3000, 10_000)
        assert result.instructions == 10_000


class TestSmallStructures:
    def test_tiny_ftq_still_correct(self):
        spec = small_spec(seed=3)
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(12_000)
        params = MachineParams(core=CoreParams(ftq_entries=4))
        result = Machine(trace, build_icache("conv32"), params).run(2000, 8000)
        assert result.instructions == 8000

    def test_tiny_rob(self):
        spec = small_spec(seed=3)
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(12_000)
        params = MachineParams(core=CoreParams(rob_entries=16))
        small = Machine(trace, build_icache("conv32"), params).run(2000, 8000)
        big = Machine(trace, build_icache("conv32")).run(2000, 8000)
        assert small.ipc <= big.ipc + 1e-9

    def test_narrow_fetch(self):
        spec = small_spec(seed=3)
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(12_000)
        params = MachineParams(core=CoreParams(fetch_width=1, fetch_bytes=4,
                                               commit_width=1,
                                               decode_width=1))
        narrow = Machine(trace, build_icache("conv32"), params).run(2000, 8000)
        wide = Machine(trace, build_icache("conv32")).run(2000, 8000)
        assert narrow.ipc < wide.ipc
        assert narrow.ipc <= 1.0 + 1e-9


class TestWarmupBoundary:
    def test_stats_cover_only_measured_window(self):
        spec = small_spec(seed=3)
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(20_000)
        short = Machine(trace, build_icache("conv32")).run(12_000, 6000)
        # After a long warm-up the caches are warm: measured misses are
        # far fewer than a cold run of the same window length.
        cold = Machine(trace, build_icache("conv32")).run(1000, 6000)
        assert short.frontend.l1i_misses <= cold.frontend.l1i_misses
