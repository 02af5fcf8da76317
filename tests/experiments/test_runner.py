"""Experiment runner / result cache tests (run at a tiny scale)."""

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.pool import run_pairs
from repro.experiments.runner import ResultCache, run_pair
from repro.stats.counters import SimResult

from ..trace.test_io import _v1_array_file, _v1_record_file

VOLATILE = ("sim_wall_seconds", "sim_cycles_per_sec", "sim_instrs_per_sec")


def _stable(result):
    """A result's dict without its host-timing extras."""
    data = result.to_dict()
    data["extra"] = {k: v for k, v in data["extra"].items()
                     if k not in VOLATILE}
    return data


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.03")
    cache = ResultCache(tmp_path / "cache")
    monkeypatch.setattr(runner_mod, "_default_cache", cache)
    yield cache


class TestCache:
    def test_run_and_cache(self, isolated_cache):
        r = run_pair("client_000", "conv32")
        assert r.workload == "client_000" and r.config == "conv32"
        assert isolated_cache.load("client_000", "conv32") is not None

    def test_cache_hit_is_identical(self):
        r1 = run_pair("client_000", "conv32")
        r2 = run_pair("client_000", "conv32")
        assert r1.cycles == r2.cycles
        assert r1.frontend.l1i_misses == r2.frontend.l1i_misses

    def test_corrupt_cache_entry_ignored(self, isolated_cache):
        r = run_pair("client_000", "conv32")
        path = isolated_cache._result_path("client_000", "conv32")
        path.write_text("{not json")
        assert isolated_cache.load("client_000", "conv32") is None
        r2 = run_pair("client_000", "conv32")
        assert r2.cycles == r.cycles

    def test_truncated_cache_entry_warns_and_deletes(self, isolated_cache,
                                                     caplog):
        import logging
        r = run_pair("client_000", "conv32")
        path = isolated_cache._result_path("client_000", "conv32")
        # Simulate a crash mid-write: keep only a prefix of the JSON.
        path.write_text(path.read_text()[:40])
        with caplog.at_level(logging.WARNING, "repro.experiments.runner"):
            assert isolated_cache.load("client_000", "conv32") is None
        assert any("corrupt result cache entry" in rec.getMessage()
                   for rec in caplog.records)
        assert not path.exists()
        r2 = run_pair("client_000", "conv32")
        assert r2.cycles == r.cycles

    def test_cache_dir_env_read_lazily(self, tmp_path, monkeypatch):
        # REPRO_CACHE_DIR must take effect for caches created after the
        # module was imported, not be frozen at import time.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "redirected"))
        cache = ResultCache()
        assert cache.root == tmp_path / "redirected"
        assert (tmp_path / "redirected" / "results").is_dir()

    def test_trace_cache_reused(self, isolated_cache):
        from repro.trace.workloads import get_workload
        wl = get_workload("client_000")
        t1 = isolated_cache.array_trace_for(wl)
        t2 = isolated_cache.array_trace_for(wl)
        assert t1 == t2
        assert isolated_cache._trace_path("client_000").exists()

    @pytest.mark.parametrize("write_old", [_v1_record_file, _v1_array_file],
                             ids=["v1_records", "v1_array"])
    def test_old_trace_container_regenerated(self, isolated_cache, caplog,
                                             write_old):
        """A cached trace in a retired container is replaced by a fresh
        version-2 file, with a warning, and simulates exactly as a fresh
        run does."""
        import logging

        from repro.trace.workloads import get_workload
        fresh = run_pair("client_000", "conv32")
        trace_path = isolated_cache._trace_path("client_000")
        write_old(trace_path, get_workload("client_000").generate())
        isolated_cache._result_path("client_000", "conv32").unlink()
        with caplog.at_level(logging.WARNING, "repro.experiments.runner"):
            again = run_pair("client_000", "conv32")
        assert any("unreadable cached trace" in rec.getMessage()
                   and str(trace_path) in rec.getMessage()
                   for rec in caplog.records)
        assert trace_path.read_bytes()[:8] == b"REPROAT\x02"
        assert _stable(again) == _stable(fresh)

    def test_analysis_extras_on_baseline(self):
        r = run_pair("client_000", "conv32")
        assert "byte_usage_counts" in r.extra
        assert "touch_distance" in r.extra
        assert len(r.extra["byte_usage_counts"]) == 65

    def test_no_analysis_extras_on_other_configs(self):
        r = run_pair("client_000", "ubs")
        assert "byte_usage_counts" not in r.extra

    def test_scale_isolation(self, isolated_cache, monkeypatch):
        run_pair("client_000", "conv32")
        monkeypatch.setenv("REPRO_SCALE", "0.04")
        assert isolated_cache.load("client_000", "conv32") is None


class TestSweep:
    def test_sweep_covers_matrix(self):
        out = run_pairs([("client_000", "conv32"), ("client_000", "ubs")])
        assert set(out) == {("client_000", "conv32"), ("client_000", "ubs")}
        for result in out.values():
            assert isinstance(result, SimResult)


class TestCounters:
    """ResultCache hit/miss/store/corrupt-evict accounting."""

    def test_fresh_cache_zeroed(self, isolated_cache):
        assert isolated_cache.counters == {
            "hits": 0, "misses": 0, "stores": 0, "corrupt_evicted": 0}

    def test_miss_hit_store(self, isolated_cache):
        assert isolated_cache.load("client_000", "conv32") is None
        run_pair("client_000", "conv32")      # load (miss) + store
        isolated_cache.load("client_000", "conv32")
        c = isolated_cache.counters
        assert c["misses"] == 2 and c["stores"] == 1 and c["hits"] == 1

    def test_uncounted_load(self, isolated_cache):
        assert isolated_cache.load("client_000", "conv32",
                                   count=False) is None
        run_pair("client_000", "conv32")
        isolated_cache.load("client_000", "conv32", count=False)
        c = isolated_cache.counters
        assert c["hits"] == 0
        assert c["misses"] == 1               # run_pair's own miss only

    def test_corrupt_entry_counted_and_evicted(self, isolated_cache):
        run_pair("client_000", "conv32")
        path = isolated_cache._result_path("client_000", "conv32")
        path.write_text("{not json")
        assert isolated_cache.load("client_000", "conv32") is None
        c = isolated_cache.counters
        assert c["corrupt_evicted"] == 1
        assert c["misses"] == 2               # initial fill miss + this one

    def test_counters_line(self, isolated_cache):
        run_pair("client_000", "conv32")
        run_pair("client_000", "conv32")
        assert isolated_cache.counters_line() == \
            "cache 1 hits / 1 misses / 1 stored / 0 corrupt-evicted"

    def test_metrics_reads_counters(self, isolated_cache):
        run_pair("client_000", "conv32")
        snap = isolated_cache.metrics()
        assert snap == {"result_cache.hits": 0, "result_cache.misses": 1,
                        "result_cache.stores": 1,
                        "result_cache.corrupt_evicted": 0}
        run_pair("client_000", "conv32")
        # Each call reads the counters as they are then.
        assert isolated_cache.metrics()["result_cache.hits"] == 1
        assert snap["result_cache.hits"] == 0


class TestEstimatesSidecar:
    """Scheduling-estimate persistence: tolerant reads, pruned writes."""

    def test_missing_sidecar_silently_empty(self, isolated_cache, caplog):
        import logging
        with caplog.at_level(logging.WARNING, "repro.experiments.runner"):
            assert isolated_cache.load_estimates() == {}
        assert not caplog.records

    def test_round_trip(self, isolated_cache):
        isolated_cache.store_estimates({"client_000::conv32": 1.5})
        assert isolated_cache.load_estimates() == {"client_000::conv32": 1.5}

    def test_merge_keeps_other_keys(self, isolated_cache):
        isolated_cache.store_estimates({"client_000::conv32": 1.0})
        isolated_cache.store_estimates({"client_001::ubs": 2.0})
        assert isolated_cache.load_estimates() == {
            "client_000::conv32": 1.0, "client_001::ubs": 2.0}

    def test_invalid_entries_skipped_individually(self, isolated_cache):
        import json
        isolated_cache._estimates_path().write_text(json.dumps({
            "client_000::conv32": 1.5,     # good
            "no-separator": 2.0,           # bad key
            "client_001::ubs": "soon",     # bad value
            "client_002::ubs": -1.0,       # non-positive
            "client_003::ubs": None,       # not coercible
        }))
        assert isolated_cache.load_estimates() == {"client_000::conv32": 1.5}

    def test_nan_and_inf_rejected(self, isolated_cache):
        isolated_cache._estimates_path().write_text(
            '{"client_000::conv32": NaN, "client_001::ubs": Infinity}')
        assert isolated_cache.load_estimates() == {}

    def test_non_object_sidecar_warns_once(self, isolated_cache, caplog):
        import logging
        isolated_cache._estimates_path().write_text("[1, 2, 3]")
        with caplog.at_level(logging.WARNING, "repro.experiments.runner"):
            assert isolated_cache.load_estimates() == {}
        assert len(caplog.records) == 1

    def test_unreadable_sidecar_warns_once(self, isolated_cache, caplog):
        import logging
        isolated_cache._estimates_path().write_text("{broken")
        with caplog.at_level(logging.WARNING, "repro.experiments.runner"):
            assert isolated_cache.load_estimates() == {}
        assert len(caplog.records) == 1

    def test_rewrite_prunes_stale_workloads(self, isolated_cache):
        import json
        isolated_cache._estimates_path().write_text(json.dumps({
            "client_000::conv32": 1.0,
            "renamed_suite_007::conv32": 2.0,     # workload no longer exists
        }))
        isolated_cache.store_estimates({"client_001::ubs": 3.0})
        kept = isolated_cache.load_estimates()
        assert "renamed_suite_007::conv32" not in kept
        assert kept == {"client_000::conv32": 1.0, "client_001::ubs": 3.0}

    def test_store_drops_invalid_fresh_entries(self, isolated_cache):
        isolated_cache.store_estimates({
            "client_000::conv32": 1.0, "bad key": 1.0,
            "client_001::ubs": 0.0})
        assert isolated_cache.load_estimates() == {"client_000::conv32": 1.0}
