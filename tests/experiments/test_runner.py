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


class TestTraceKey:
    """A synthesised workload's ``.atrace`` is named by its spec, its
    length and the synthesis format, so a changed generator input misses."""

    def _counting_generate(self, monkeypatch):
        from repro.trace.workloads import Workload

        generated = []
        real = Workload.generate

        def generate(workload):
            generated.append(workload.name)
            return real(workload)

        monkeypatch.setattr(Workload, "generate", generate)
        return generated

    def test_unchanged_spec_reuses_the_trace(self, isolated_cache,
                                             monkeypatch):
        from repro.trace.workloads import get_workload

        first = isolated_cache.array_trace_for(get_workload("client_000"))
        generated = self._counting_generate(monkeypatch)
        again = isolated_cache.array_trace_for(get_workload("client_000"))
        assert generated == []
        assert again == first

    def test_changed_spec_field_regenerates(self, isolated_cache,
                                            monkeypatch):
        from dataclasses import replace

        from repro.trace.workloads import get_workload

        workload = get_workload("client_000")
        isolated_cache.array_trace_for(workload)
        changed = replace(workload, spec=replace(workload.spec,
                                                 p_unit_cold=0.30))
        old_path = isolated_cache._trace_path(workload)
        new_path = isolated_cache._trace_path(changed)
        assert new_path != old_path
        assert new_path.name.startswith("client_000__s0.03__")
        generated = self._counting_generate(monkeypatch)
        trace = isolated_cache.array_trace_for(changed)
        assert generated == ["client_000"]
        assert new_path.exists() and old_path.exists()
        assert trace == changed.generate()

    def test_synthesis_format_names_the_file(self, isolated_cache,
                                             monkeypatch):
        before = isolated_cache._trace_path("client_000")
        monkeypatch.setattr(runner_mod, "SYNTHESIS_FORMAT",
                            runner_mod.SYNTHESIS_FORMAT + 1)
        assert isolated_cache._trace_path("client_000") != before

    def test_imported_names_keep_their_scheme(self, isolated_cache):
        name = "champsim:/data/traces/srv.champsimtrace"
        path = isolated_cache._trace_path(name)
        assert path.name == \
            f"{ResultCache._safe_name(name)}__s0.03.atrace"


class TestPrecomputeSidecars:
    """Per-trace precompute persisted beside the ``.atrace``
    (:mod:`repro.cpu.precompute`): a later process, here a fresh cache
    over the same directory, loads it instead of building it."""

    CORUN = "smt:client_000+spec_000"

    @staticmethod
    def _count_builds(monkeypatch):
        """Count the three builders' calls (the fingerprint is computed
        first, so its own probe builds are not counted)."""
        import repro.cpu.backend as backend_mod
        import repro.cpu.machine as machine_mod
        from repro.cpu.precompute import precompute_fingerprint

        precompute_fingerprint()
        calls = []
        for owner, name in ((machine_mod, "precompute_range_stream"),
                            (machine_mod, "segment_stream"),
                            (backend_mod, "build_op_table")):
            real = getattr(owner, name)

            def counting(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(owner, name, counting)
        return calls

    @staticmethod
    def _fresh_fingerprint(monkeypatch):
        import repro.cpu.precompute as precompute_mod

        monkeypatch.setattr(precompute_mod, "_fingerprint", None)

    def _simulate(self, cache, workload, config):
        from repro.trace.workloads import get_workload

        wl = get_workload(workload)
        trace = None if workload.startswith("smt:") \
            else cache.array_trace_for(wl)
        return runner_mod._simulate(wl, config, trace, cache=cache)

    def _cold_then_again(self, isolated_cache, workload, config):
        cold = self._simulate(isolated_cache, workload, config)
        return cold, ResultCache(isolated_cache.root)

    @pytest.mark.parametrize("workload,config", [
        ("client_000", "conv32"), ("client_000", "ubs"),
        (CORUN, "conv32")])
    def test_hit_equals_cold_build(self, isolated_cache, monkeypatch,
                                   workload, config):
        cold, later = self._cold_then_again(isolated_cache, workload,
                                            config)
        calls = self._count_builds(monkeypatch)
        hit = self._simulate(later, workload, config)
        assert calls == []
        assert _stable(hit) == _stable(cold)

    def test_changed_branch_params_miss(self, isolated_cache, monkeypatch):
        from repro.cpu.machine import Machine, build_icache
        from repro.params import BranchParams, MachineParams
        from repro.trace.workloads import get_workload

        _cold, later = self._cold_then_again(isolated_cache, "client_000",
                                             "conv32")
        calls = self._count_builds(monkeypatch)
        trace = later.array_trace_for(get_workload("client_000"))
        params = MachineParams(branch=BranchParams(perceptron_threshold=10))
        Machine(trace, build_icache("conv32"), params=params)
        # A new stream and its chunks; the op table does not depend on
        # the branch predictor, so it is a hit.
        assert calls == ["precompute_range_stream", "segment_stream"]

    def test_changed_trace_misses(self, isolated_cache, monkeypatch):
        from repro.trace.io import write_trace
        from repro.trace.workloads import get_workload

        cold, later = self._cold_then_again(isolated_cache, "client_000",
                                            "conv32")
        path = isolated_cache._trace_path("client_000")
        other = get_workload("spec_000").generate()
        write_trace(path, other)
        calls = self._count_builds(monkeypatch)
        result = self._simulate(later, "client_000", "conv32")
        assert sorted(calls) == ["build_op_table", "precompute_range_stream",
                                 "segment_stream"]
        assert result.cycles != cold.cycles

    def test_changed_precompute_misses(self, isolated_cache, monkeypatch):
        """A builder change that moves an output (here the perceptron's
        training threshold) moves the fingerprint, so nothing is served
        from the sidecars built before it."""
        from repro.frontend.perceptron import HashedPerceptron

        _cold, later = self._cold_then_again(isolated_cache, "client_000",
                                             "conv32")
        real_init = HashedPerceptron.__init__

        def no_margin(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            self.threshold = 0

        monkeypatch.setattr(HashedPerceptron, "__init__", no_margin)
        self._fresh_fingerprint(monkeypatch)
        calls = self._count_builds(monkeypatch)
        self._simulate(later, "client_000", "conv32")
        assert "precompute_range_stream" in calls

    def test_results_version_bump_misses(self, isolated_cache, monkeypatch):
        """The bump that retires cached results after a change of
        simulator semantics retires the sidecars too."""
        _cold, later = self._cold_then_again(isolated_cache, "client_000",
                                             "conv32")
        monkeypatch.setattr(runner_mod, "RESULTS_VERSION",
                            runner_mod.RESULTS_VERSION + 1)
        calls = self._count_builds(monkeypatch)
        self._simulate(later, "client_000", "conv32")
        assert sorted(calls) == ["build_op_table", "precompute_range_stream",
                                 "segment_stream"]
        assert len(list((isolated_cache.root / "traces")
                        .glob("*.derived"))) == 6

    def test_no_op_refactor_hits(self, isolated_cache, monkeypatch):
        """A change that moves no output keeps the fingerprint, so the
        sidecars still serve."""
        from repro.frontend.perceptron import HashedPerceptron

        cold, later = self._cold_then_again(isolated_cache, "client_000",
                                            "conv32")
        real = HashedPerceptron.predict_and_train

        def same(self, pc, taken):
            return real(self, pc, taken)

        monkeypatch.setattr(HashedPerceptron, "predict_and_train", same)
        self._fresh_fingerprint(monkeypatch)
        calls = self._count_builds(monkeypatch)
        hit = self._simulate(later, "client_000", "conv32")
        assert calls == []
        assert _stable(hit) == _stable(cold)

    def test_truncated_sidecar_warns_deletes_and_rebuilds(
            self, isolated_cache, monkeypatch, caplog):
        import logging

        cold, later = self._cold_then_again(isolated_cache, "client_000",
                                            "conv32")
        sidecars = sorted((isolated_cache.root / "traces").glob("*.derived"))
        assert len(sidecars) == 3
        damaged = sidecars[0]
        damaged.write_bytes(damaged.read_bytes()[:-100])
        calls = self._count_builds(monkeypatch)
        with caplog.at_level(logging.WARNING, "repro.cpu.precompute"):
            result = self._simulate(later, "client_000", "conv32")
        assert any("damaged sidecar" in rec.getMessage()
                   and str(damaged) in rec.getMessage()
                   for rec in caplog.records)
        assert len(calls) == 1
        assert _stable(result) == _stable(cold)
        # Rebuilt and published again, intact.
        assert sorted((isolated_cache.root / "traces").glob("*.derived")) \
            == sidecars
        assert damaged.stat().st_size > 100

    def test_traces_built_in_memory_write_no_sidecar(self, isolated_cache):
        from repro.cpu.machine import build_machine
        from repro.trace.workloads import get_workload

        build_machine(get_workload("client_000").generate(), "conv32")
        assert list(isolated_cache.root.rglob("*.derived")) == []
