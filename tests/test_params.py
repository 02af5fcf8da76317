"""Configuration dataclass tests."""

import pytest

from repro.errors import ConfigurationError
from repro.params import (
    BranchParams,
    CacheParams,
    CoreParams,
    DEFAULT_UBS_WAY_SIZES,
    DramParams,
    MachineParams,
    UBSParams,
    conventional_l1i,
)


class TestCacheParams:
    def test_table1_l1i(self):
        p = MachineParams().l1i
        assert p.size == 32 * 1024 and p.ways == 8 and p.latency == 4
        assert p.sets == 64

    def test_table1_levels(self):
        m = MachineParams()
        assert m.l1d.size == 48 * 1024 and m.l1d.ways == 12
        assert m.l2.size == 512 * 1024 and m.l2.latency == 12
        assert m.l3.size == 2 * 1024 * 1024 and m.l3.ways == 16

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheParams(name="X", size=1000, ways=3, latency=1,
                        mshr_entries=1)

    def test_non_pot_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheParams(name="X", size=192 * 1024, ways=8, latency=1,
                        mshr_entries=1)

    def test_offset_and_index_bits(self):
        p = conventional_l1i(32 * 1024)
        assert p.offset_bits == 6 and p.index_bits == 6

    def test_with_l1i(self):
        m = MachineParams().with_l1i(conventional_l1i(64 * 1024))
        assert m.l1i.size == 64 * 1024
        assert m.l2.size == 512 * 1024


class TestUBSParams:
    def test_table2_defaults(self):
        p = UBSParams()
        assert p.sets == 64
        assert p.way_sizes == DEFAULT_UBS_WAY_SIZES
        assert len(p.way_sizes) == 16
        assert p.latency == 4 and p.mshr_entries == 8

    def test_data_budget_matches_table3(self):
        p = UBSParams()
        assert p.data_bytes_per_set == 508
        assert p.data_capacity == 508 * 64

    def test_way_sizes_must_be_sorted(self):
        with pytest.raises(ConfigurationError):
            UBSParams(way_sizes=(8, 4))

    def test_way_size_bounds(self):
        with pytest.raises(ConfigurationError):
            UBSParams(way_sizes=(4, 128))
        with pytest.raises(ConfigurationError):
            UBSParams(way_sizes=())

    def test_granularity_alignment(self):
        with pytest.raises(ConfigurationError):
            UBSParams(way_sizes=(6, 12), instruction_granularity=4)

    def test_budget_below_one_set_rejected(self):
        from repro.cpu.machine import build_icache

        # 0 KB is less than one 508-byte set: no cache rather than a
        # silently rounded-up one-set cache.
        with pytest.raises(ConfigurationError, match="one UBS set"):
            build_icache("ubs_budget0")
        assert build_icache("ubs_budget16").params.sets == 32


class TestOtherParams:
    def test_branch_defaults(self):
        b = BranchParams()
        assert b.btb_entries == 4096

    def test_branch_validation(self):
        with pytest.raises(ConfigurationError):
            BranchParams(btb_entries=1000)

    def test_core_table1(self):
        c = CoreParams()
        assert c.rob_entries == 224
        assert c.fetch_width == 4
        assert c.load_queue == 128 and c.store_queue == 72

    def test_dram_latencies(self):
        d = DramParams()
        assert d.row_miss_latency > d.row_hit_latency
        assert d.row_miss_latency == d.t_rp + d.t_rcd + d.t_cas + d.bus_cycles
