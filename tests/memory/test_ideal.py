"""Ideal (always-hit) instruction cache tests."""

from repro.cpu.machine import Machine, build_icache
from repro.memory.icache import MissKind
from repro.memory.ideal import IdealICache
from repro.trace.synthesis import ProgramBuilder, TraceWalker

from ..conftest import small_spec


class TestIdealCache:
    def test_always_hits(self):
        ic = IdealICache()
        for addr in (0, 0x1234, 0xFFFF_FFC0):
            assert ic.lookup(addr, 16) is MissKind.HIT
        assert ic.misses == 0
        assert ic.hits == 3

    def test_probe_always_true(self):
        assert IdealICache().probe_range(0x4000, 64)

    def test_perfect_efficiency(self):
        used, stored = IdealICache().storage_snapshot()
        assert used == stored

    def test_config_name(self):
        assert isinstance(build_icache("ideal"), IdealICache)


class TestIdealUpperBound:
    def test_ideal_has_zero_fetch_stalls(self):
        spec = small_spec(seed=17, n_functions=500, n_entry_points=32)
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(25_000)
        result = Machine(trace, build_icache("ideal")).run(5000, 18_000)
        assert result.frontend.fetch_stall_cycles == 0
        assert result.frontend.l1i_misses == 0

    def test_ideal_bounds_all_real_caches(self):
        spec = small_spec(seed=17, n_functions=500, n_entry_points=32)
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(25_000)
        ideal = Machine(trace, build_icache("ideal")).run(5000, 18_000)
        for config in ("conv16", "conv32", "conv192", "ubs"):
            real = Machine(trace, build_icache(config)).run(5000, 18_000)
            assert real.ipc <= ideal.ipc + 1e-9, config
