"""SRRIP / DRRIP replacement tests."""

import pytest

from repro.memory.icache import ConventionalICache, MissKind
from repro.memory.srrip import DRRIPPolicy, SRRIPPolicy, _RRPV_MAX
from repro.params import CacheParams


def access(cache, addr):
    """Fetch 4 bytes at ``addr``, filling the block on a miss."""
    if cache.lookup(addr, 4) != MissKind.HIT:
        cache.fill(addr & -64)


class TestSRRIP:
    def test_victim_prefers_distant(self):
        p = SRRIPPolicy(1, 4)
        for way in range(4):
            p.on_fill(0, way, way << 6)
        p.on_hit(0, 2, 2 << 6)          # way 2 promoted to RRPV 0
        victim = p.victim(0)
        assert victim != 2

    def test_aging_when_no_distant(self):
        p = SRRIPPolicy(1, 2)
        p.on_fill(0, 0, 0)
        p.on_fill(0, 1, 64)
        p.on_hit(0, 0, 0)
        p.on_hit(0, 1, 64)
        # Both at RRPV 0 -> victim search must age and terminate.
        assert p.victim(0) in (0, 1)

    def test_candidate_restriction(self):
        p = SRRIPPolicy(1, 8)
        for way in range(8):
            p.on_fill(0, way, way << 6)
        assert p.victim(0, candidates=[5, 6]) in (5, 6)

    def test_scan_resistance_vs_lru(self):
        """SRRIP keeps a re-referenced block through a one-shot scan;
        LRU does not."""
        survived = {}
        for replacement in ("srrip", "lru"):
            params = CacheParams(name="T", size=1024, ways=2, latency=1,
                                 mshr_entries=1, replacement=replacement)
            cache = ConventionalICache(params)
            sets = cache.sets
            hot = 0
            access(cache, hot)
            access(cache, hot)              # promoted
            # Scan: two one-shot blocks through the same set.
            access(cache, 1 * sets * 64)
            access(cache, 2 * sets * 64)
            survived[replacement] = cache.probe_range(hot, 4)
        assert survived == {"srrip": True, "lru": False}


class TestDRRIP:
    def test_duel_sets_disjoint(self):
        p = DRRIPPolicy(64, 8)
        assert not (p._srrip_sets & p._brrip_sets)
        assert p._srrip_sets and p._brrip_sets

    def test_psel_moves_with_misses(self):
        p = DRRIPPolicy(64, 8)
        srrip_set = next(iter(p._srrip_sets))
        before = p._psel
        p.note_miss(0, srrip_set)
        assert p._psel == before - 1

    def test_insertion_depends_on_winner(self):
        p = DRRIPPolicy(64, 8)
        follower = next(s for s in range(64)
                        if s not in p._srrip_sets
                        and s not in p._brrip_sets)
        p._psel = 100      # BRRIP leaders miss more: SRRIP wins
        assert p._insertion_rrpv(0, follower) == _RRPV_MAX - 1
        p._psel = -100     # SRRIP leaders miss more: BRRIP wins
        values = {p._insertion_rrpv(0, follower) for _ in range(64)}
        assert _RRPV_MAX in values      # BRRIP inserts mostly distant

    def test_cache_misses_train_psel(self):
        """The cache calls DRRIP's overridden note_miss on every miss (it
        skips only the no-op default), so misses in an SRRIP leader set
        move PSEL toward BRRIP."""
        params = CacheParams(name="T", size=2048, ways=4, latency=1,
                             mshr_entries=1, replacement="drrip")
        cache = ConventionalICache(params)
        leader = min(cache.policy._srrip_sets)
        for i in range(3):
            assert cache.lookup((leader + i * cache.sets) * 64, 4) \
                is not MissKind.HIT
        assert cache.policy._psel == -3

    @staticmethod
    def _thrash_misses(replacement: str) -> int:
        """Misses of a 64-set, 4-way cache cycling 6 blocks through every
        set for 40 passes: each pass evicts every block before its reuse
        under SRRIP's (and LRU's) insertion."""
        params = CacheParams(name="T", size=64 * 4 * 64, ways=4, latency=1,
                             mshr_entries=1, replacement=replacement)
        cache = ConventionalICache(params)
        for _ in range(40):
            for block in range(6):
                for set_idx in range(cache.sets):
                    access(cache, (block * cache.sets + set_idx) * 64)
        return cache.misses

    def test_duel_picks_brrip_on_thrash(self):
        """BRRIP's distant insertion keeps part of the working set; the
        followers must adopt it once the SRRIP leaders miss more."""
        srrip = self._thrash_misses("srrip")
        assert srrip == 64 * 6 * 40
        assert self._thrash_misses("drrip") < 0.7 * srrip

    def test_through_cache(self):
        params = CacheParams(name="T", size=2048, ways=4, latency=1,
                             mshr_entries=1, replacement="drrip")
        cache = ConventionalICache(params)
        assert isinstance(cache.policy, DRRIPPolicy)
        for i in range(64):
            access(cache, i * 64)
        assert cache.misses == 64


class TestConfigNames:
    @pytest.mark.parametrize("name", ["conv32_srrip", "conv32_drrip",
                                      "conv32_fifo", "conv32_random"])
    def test_buildable(self, name):
        from repro.cpu.machine import build_icache
        ic = build_icache(name)
        assert ic.params.size == 32 * 1024
