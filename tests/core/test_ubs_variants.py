"""Tests for the UBS ablation knobs (merge gap, window, replacement)."""

import pytest

from repro.core.ubs_cache import UBSICache
from repro.errors import ConfigurationError
from repro.memory.ghrp import GHRPPolicy
from repro.memory.icache import MissKind
from repro.memory.replacement import LRUPolicy
from repro.params import UBSParams


def addr_of(block, offset=0):
    return (block << 6) + offset


class TestCandidateWindow:
    def _install_many(self, ubs, lengths, block_base=16):
        """Install several same-length runs into one set."""
        step = ubs.predictor.config.sets
        block = block_base
        for length in lengths:
            ubs.fill(addr_of(block))
            assert ubs.lookup(addr_of(block), length) is MissKind.HIT
            ubs.fill(addr_of(block + step))       # evict from predictor
            ubs.fill(addr_of(block + 2 * step))   # flush the conflictor too
            block += 4 * step                     # same cache set (sets=4)

    def test_window1_restricts_to_exact_fit(self):
        params = UBSParams(sets=4, predictor_sets=4, candidate_window=1,
                           run_merge_gap=0)
        ubs = UBSICache(params)
        # Three 16-byte runs with window=1 all contend for the single
        # exact-fit way; only the newest survives there.
        self._install_many(ubs, [16, 16, 16])
        set_idx = 0
        sixteen_ways = [w for w, size in enumerate(ubs.way_sizes)
                        if size == 16]
        occupied = [w for w in range(ubs.n_ways)
                    if ubs._tags[set_idx][w] is not None
                    and ubs.way_sizes[w] >= 16]
        # With window=1 every 16B run lands in the one 16B way.
        assert all(w in sixteen_ways for w in occupied
                   if ubs.way_sizes[w] == 16)

    def test_window16_spreads_runs(self):
        params = UBSParams(sets=4, predictor_sets=4, candidate_window=16,
                           run_merge_gap=0)
        ubs = UBSICache(params)
        self._install_many(ubs, [16, 16, 16])
        set_idx = 0
        survivors = sum(1 for w in range(ubs.n_ways)
                        if ubs._tags[set_idx][w] is not None)
        assert survivors >= 3   # wide window keeps all three resident

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            UBSParams(candidate_window=0)


class TestReplacementChoice:
    def test_default_is_lru(self):
        assert isinstance(UBSICache().policy, LRUPolicy)

    def test_ghrp_selectable(self):
        ubs = UBSICache(UBSParams(replacement="ghrp"))
        assert isinstance(ubs.policy, GHRPPolicy)

    def test_unknown_replacement_rejected(self):
        with pytest.raises(ConfigurationError):
            UBSParams(replacement="belady")

    def test_ghrp_variant_functions(self):
        ubs = UBSICache(UBSParams(sets=4, predictor_sets=4,
                                  replacement="ghrp"))
        for block in range(16, 48, 4):
            res = ubs.lookup(addr_of(block), 16)
            if res is not MissKind.HIT:
                ubs.fill(addr_of(block))
                assert ubs.lookup(addr_of(block), 16) is MissKind.HIT


class TestBuildConfigs:
    def test_gap_config(self):
        from repro.cpu.machine import build_icache
        assert build_icache("ubs_gap0").params.run_merge_gap == 0
        assert build_icache("ubs_gap8").params.run_merge_gap == 8

    def test_window_config(self):
        from repro.cpu.machine import build_icache
        assert build_icache("ubs_win1").params.candidate_window == 1
        assert build_icache("ubs_win16").params.candidate_window == 16

    def test_ghrp_config(self):
        from repro.cpu.machine import build_icache
        assert isinstance(build_icache("ubs_ghrp").policy, GHRPPolicy)
