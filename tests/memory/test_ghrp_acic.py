"""GHRP and ACIC policy behaviour tests."""

from repro.core.ubs_cache import UBSICache
from repro.memory.acic import ACICFilter, _ADMIT_THRESHOLD, _CONF_MAX
from repro.memory.ghrp import GHRPPolicy
from repro.memory.icache import ConventionalICache, MissKind
from repro.params import UBSParams, conventional_l1i


class TestGHRP:
    def test_lru_fallback(self):
        g = GHRPPolicy(1, 4)
        for way in range(4):
            g.on_fill(0, way, way << 6)
        g.on_hit(0, 0, 0)
        victim = g.victim(0)
        assert victim != 0  # way 0 is MRU

    def test_training_makes_dead_blocks_victims(self):
        g = GHRPPolicy(1, 4)
        # Train the signature of address 0xAA000 as dead many times from a
        # stable history context.
        for _ in range(40):
            g._history = 0x1234
            g.on_fill(0, 0, 0xAA000)
            g.on_evict(0, 0, 0xAA000, was_reused=False)
        for way in (1, 2, 3):
            g.on_fill(0, way, (0x100 + way) << 6)
        g._history = 0x1234
        g.on_fill(0, 0, 0xAA000)   # MRU, but its signature is trained dead
        assert g.victim(0) == 0    # dead prediction overrides recency

    def test_reuse_training_protects(self):
        g = GHRPPolicy(1, 2)
        for _ in range(40):
            g._history = 0x55
            g.on_fill(0, 0, 0xBB000)
            g.on_evict(0, 0, 0xBB000, was_reused=True)
        g._history = 0x55
        g.on_fill(0, 0, 0xBB000)
        g.on_fill(0, 1, 0xCC000)
        # Neither predicted dead; LRU picks way 0 (older).
        assert g.victim(0) == 0

    def test_history_updates_on_access(self):
        g = GHRPPolicy(1, 2)
        h0 = g._history
        g.on_fill(0, 0, 0x1000)
        assert g._history != h0


class TestACIC:
    def test_initially_admits(self):
        a = ACICFilter(1, 4)
        assert a.should_admit(0x1000, 0)

    def test_dead_evictions_lower_confidence(self):
        a = ACICFilter(1, 4)
        for _ in range(_CONF_MAX + 1):
            a.on_evict(0, 0, 0x1000, was_reused=False)
        assert not a.should_admit(0x1000, 0)

    def test_observed_reuse_restores_admission(self):
        a = ACICFilter(1, 4)
        for _ in range(_CONF_MAX + 1):
            a.on_evict(0, 0, 0x1000, was_reused=False)
        assert not a.should_admit(0x1000, 0)
        # Two misses to the same block while under observation raise
        # confidence back.
        needed = _ADMIT_THRESHOLD
        for _ in range(needed + 1):
            a.note_miss(0x1000, 0)
            a.note_miss(0x1000, 0)
        assert a.should_admit(0x1000, 0)

    def test_lru_replacement(self):
        a = ACICFilter(1, 3)
        for way in range(3):
            a.on_fill(0, way, way << 6)
        a.on_hit(0, 0, 0)
        assert a.victim(0) == 1

    def test_filter_conflicts_replace_observation(self):
        a = ACICFilter(1, 4)
        block = 0x40          # block id 1
        conflicting = block + 256 * 64  # same filter slot
        a.note_miss(block, 0)
        a.note_miss(conflicting, 0)  # kicks the first out
        # A second miss on the first block is no longer a filter hit, so
        # its confidence is unchanged at default.
        conf_before = list(a._confidence)
        a.note_miss(block, 0)
        assert a._confidence == conf_before


class TestCachesTrainOnEviction:
    """The caches bind ``on_evict`` only for policies that override it;
    these pin that GHRP and ACIC still see every eviction (at the golden
    scale no eviction-trained decision changes a counter)."""

    @staticmethod
    def _evict_one_dead(policy):
        # 1 KB, 2-way: blocks 0, 8 and 16 share set 0, so the third fill
        # evicts the never-reused block 0.
        ic = ConventionalICache(conventional_l1i(1024, ways=2),
                                policy=policy)
        for block in (0, 8, 16):
            ic.fill(block << 6)

    def test_conventional_cache_trains_ghrp(self):
        g = GHRPPolicy(8, 2)
        before = [list(table) for table in g._tables]
        self._evict_one_dead(g)
        assert g._tables != before

    def test_conventional_cache_trains_acic(self):
        a = ACICFilter(8, 2)
        self._evict_one_dead(a)
        assert a._confidence[a._conf_index(0)] == _CONF_MAX - 1

    def test_ubs_cache_trains_ghrp(self):
        ubs = UBSICache(UBSParams(sets=4, predictor_sets=4,
                                  replacement="ghrp"))
        before = [list(table) for table in ubs.policy._tables]
        # Fetched blocks pass through the predictor into the ways; 256
        # of them over 4 sets overflow the ways many times.
        for block in range(0, 1024, 4):
            if ubs.lookup(block << 6, 16) is not MissKind.HIT:
                ubs.fill(block << 6)
                ubs.lookup(block << 6, 16)
        assert ubs.way_evictions > 0
        assert ubs.policy._tables != before
