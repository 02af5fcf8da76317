"""Bypass (read-around) buffer tests for admission-controlled fills."""

from repro.memory.icache import ConventionalICache, MissKind
from repro.memory.replacement import ReplacementPolicy
from repro.params import conventional_l1i


class DenyAll(ReplacementPolicy):
    """Admission policy that bypasses everything (victimises way 0)."""

    def should_admit(self, addr, set_idx):
        return False

    def victim(self, set_idx, candidates=None):
        return 0


def make_denying():
    return ConventionalICache(conventional_l1i(1024, ways=2),
                              policy=DenyAll(8, 2))


class TestBypassBuffer:
    def test_bypassed_fill_served_from_buffer(self):
        ic = make_denying()
        assert ic.lookup(0x1000, 8) is not MissKind.HIT
        ic.fill(0x1000)
        assert ic.block_count() == 0          # not in the array...
        assert ic.lookup(0x1000, 8) is MissKind.HIT       # ...but served read-around

    def test_buffer_is_fifo_bounded(self):
        ic = make_denying()
        for i in range(6):
            ic.fill(i * 64)
        assert ic.lookup(0, 8) is not MissKind.HIT        # oldest pushed out
        assert ic.lookup(5 * 64, 8) is MissKind.HIT

    def test_probe_range_sees_buffer(self):
        ic = make_denying()
        ic.fill(0x2000)
        assert ic.probe_range(0x2000, 16)

    def test_duplicate_fill_not_duplicated(self):
        ic = make_denying()
        ic.fill(0x1000)
        ic.fill(0x1000)
        assert ic._bypass.count(0x1000 >> 6) == 1

    def test_admitting_cache_never_uses_buffer(self):
        ic = ConventionalICache(conventional_l1i(1024, ways=2))
        ic.lookup(0x1000, 8)
        ic.fill(0x1000)
        assert not ic._bypass
        assert ic.block_count() == 1


class TestReuseSignal:
    def test_first_burst_is_not_reuse(self):
        ic = ConventionalICache(conventional_l1i(1024, ways=2))
        ic.fill(0)
        ic.lookup(0, 16)
        ic.lookup(16, 16)        # contiguous fresh bytes
        assert not ic._reused[0][0]

    def test_refetching_same_bytes_is_reuse(self):
        ic = ConventionalICache(conventional_l1i(1024, ways=2))
        ic.fill(0)
        ic.lookup(0, 16)
        ic.lookup(0, 16)         # revisit
        assert ic._reused[0][0]

    def test_partial_overlap_counts_as_reuse(self):
        ic = ConventionalICache(conventional_l1i(1024, ways=2))
        ic.fill(0)
        ic.lookup(0, 16)
        ic.lookup(8, 16)         # overlaps [8,16)
        assert ic._reused[0][0]
