"""Sweep-engine tests: parity, scheduling, single-flight, shm hygiene.

Everything runs at ``REPRO_SCALE=0.03`` (a few thousand instructions per
workload) so the pool tests stay fast enough for tier 1.
"""

import json
import os
from pathlib import Path

import pytest

import repro.experiments.runner as runner_mod
from repro.obs.hooks import ProgressObs
from repro.experiments.pool import SweepEngine, expected_cost, run_pairs
from repro.experiments.runner import ResultCache
from repro.stats.counters import SimResult

PAIRS = [
    ("server_000", "conv32"),
    ("server_000", "ubs"),
    ("client_000", "conv32"),
    ("client_000", "ubs"),
]

#: Host-timing keys that legitimately differ between runs.
VOLATILE = ("sim_wall_seconds", "sim_cycles_per_sec", "sim_instrs_per_sec")


def _masked_results(cache: ResultCache) -> dict:
    """results/*.json keyed by filename, with volatile timings masked."""
    out = {}
    for path in sorted((cache.root / "results").glob("*.json")):
        data = json.loads(path.read_text())
        for key in VOLATILE:
            data.get("extra", {}).pop(key, None)
        out[path.name] = data
    return out


def _shm_entries():
    shm = Path("/dev/shm")
    if not shm.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in shm.iterdir() if not p.name.startswith("sem.")}


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.03")
    # The engine's workers re-derive the cache from its root; the host
    # default cache must not leak into the developer's .repro_cache.
    monkeypatch.setattr(runner_mod, "_default_cache", None)


def _engine(tmp_path, name, jobs):
    return SweepEngine(jobs=jobs, cache=ResultCache(tmp_path / name))


class TestParity:
    def test_parallel_fill_byte_identical_to_serial(self, tmp_path):
        """Modulo host-timing extras, a --jobs 2 fill must produce the
        same result-cache bytes as the inline fill."""
        serial = _engine(tmp_path, "serial", jobs=1)
        parallel = _engine(tmp_path, "parallel", jobs=2)
        serial.run(PAIRS)
        parallel.run(PAIRS)
        assert serial.pairs_simulated == parallel.pairs_simulated == 4
        assert _masked_results(serial.cache) == _masked_results(parallel.cache)

    def test_results_match_between_modes(self, tmp_path):
        inline = _engine(tmp_path, "a", jobs=1).run(PAIRS)
        pooled = _engine(tmp_path, "b", jobs=2).run(PAIRS)
        assert set(inline) == set(pooled) == set(PAIRS)
        for pair in PAIRS:
            assert inline[pair].cycles == pooled[pair].cycles
            assert inline[pair].to_dict()["frontend"] == \
                pooled[pair].to_dict()["frontend"]

    def test_run_pairs_wrapper(self, tmp_path):
        out = run_pairs(PAIRS[:1], cache=ResultCache(tmp_path / "w"))
        assert isinstance(out[PAIRS[0]], SimResult)

    def test_workers_consume_vectorized_traces(self, tmp_path):
        """Every pool worker simulates through the columnar (vectorized)
        kernel: the trace files the engine fans out decode to v2
        ArrayTraces carrying the precomputed boundary sidecar."""
        from repro.trace.arrays import ArrayTrace
        from repro.trace.io import read_trace

        engine = _engine(tmp_path, "vec", jobs=2)
        engine.run(PAIRS)
        trace_files = sorted((engine.cache.root / "traces").glob("*.atrace"))
        assert len(trace_files) == 2    # one per workload, shared by configs
        for path in trace_files:
            trace = read_trace(path)
            assert isinstance(trace, ArrayTrace)
            assert len(trace.boundary) == len(trace)
            # Sidecar invariant the vectorized walk depends on: every
            # boundary points at or past its own instruction.
            assert all(b >= i for i, b in enumerate(trace.boundary))


class TestScheduling:
    def test_duplicate_pairs_simulated_once(self, tmp_path, monkeypatch):
        calls = []
        real = runner_mod._simulate

        def counting(workload, config, cache, memo=None):
            calls.append((workload, config))
            return real(workload, config, cache, memo)

        import repro.experiments.pool as pool_mod
        monkeypatch.setattr(pool_mod, "_simulate", counting)
        engine = _engine(tmp_path, "dup", jobs=1)
        out = engine.run([PAIRS[0], PAIRS[1], PAIRS[0], PAIRS[0]])
        assert calls.count(PAIRS[0]) == 1
        assert set(out) == {PAIRS[0], PAIRS[1]}
        assert engine.pairs_simulated == 2

    def test_cached_pairs_not_resimulated(self, tmp_path):
        engine = _engine(tmp_path, "warm", jobs=1)
        engine.run(PAIRS[:2])
        again = SweepEngine(jobs=1, cache=engine.cache)
        out = again.run(PAIRS)
        assert again.pairs_simulated == 2  # only the two cold pairs
        assert set(out) == set(PAIRS)

    def test_expected_cost_ranks_subblock_configs_slower(self):
        # The cost heuristic ranks sub-block configs as slower than the
        # conventional baseline of the same workload.
        assert expected_cost(("server_000", "ubs")) > \
            expected_cost(("server_000", "conv32"))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_pairs_dispatched_longest_first(self, tmp_path, jobs):
        scheduled, started = [], []

        class Recorder(ProgressObs):
            def sweep_started(self, todo, total_pairs, costs, jobs):
                scheduled.extend(todo)
                assert costs == {p: expected_cost(p) for p in todo}
                super().sweep_started(todo, total_pairs, costs, jobs)

            def pair_started(self, workload, config):
                started.append((workload, config))
                super().pair_started(workload, config)

        # Cheapest first, so an engine that kept the input order fails.
        pairs = sorted(PAIRS, key=expected_cost)
        SweepEngine(jobs=jobs, cache=ResultCache(tmp_path / "order"),
                    obs=Recorder()).run(pairs)
        longest_first = sorted(pairs, key=lambda p: -expected_cost(p))
        assert scheduled == longest_first
        assert sorted(started) == sorted(pairs)
        if jobs == 1:
            assert started == longest_first

    def test_fill_metrics(self, tmp_path):
        engine = _engine(tmp_path, "metrics", jobs=1)
        engine.run(PAIRS[:2])
        assert engine.fill_seconds > 0
        assert engine.pairs_per_min > 0
        # A fully warm run simulates nothing.
        warm = SweepEngine(jobs=1, cache=engine.cache)
        warm.run(PAIRS[:2])
        assert warm.pairs_simulated == 0

    def test_profiler_charged(self, tmp_path):
        from repro.telemetry.profiler import StageProfiler
        prof = StageProfiler()
        engine = SweepEngine(jobs=1, cache=ResultCache(tmp_path / "prof"),
                             profiler=prof)
        engine.run(PAIRS[:2])
        assert prof.wall_seconds > 0
        assert prof.stage_seconds.get("simulate", 0) > 0
        assert prof.stage_calls["simulate"] == 2


class TestHygiene:
    def test_no_shared_memory_leaked(self, tmp_path):
        """A parallel fill must leave no /dev/shm entry behind — leaked
        segments outlive the process and eat host RAM across
        campaigns."""
        before = _shm_entries()
        _engine(tmp_path, "shm", jobs=2).run(PAIRS)
        assert _shm_entries() == before

    def test_no_temp_files_left(self, tmp_path):
        engine = _engine(tmp_path, "tmp", jobs=2)
        engine.run(PAIRS)
        root = Path(engine.cache.root)
        # Results, traces and the traces' precompute sidecars all publish
        # through a temp file and a rename.
        assert len(list(root.rglob("*.derived"))) == 6
        assert list(root.rglob("*.tmp")) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cache_root_holds_only_results_and_traces(self, tmp_path, jobs):
        engine = _engine(tmp_path, "layout", jobs=jobs)
        engine.run(PAIRS)
        assert sorted(os.listdir(engine.cache.root)) == ["results", "traces"]

    def test_store_is_atomic_and_deterministic(self, tmp_path):
        """store() must leave no droppings and write sorted-key JSON so
        byte-level parity comparisons are meaningful."""
        engine = _engine(tmp_path, "atomic", jobs=1)
        engine.run(PAIRS[:1])
        path = engine.cache._result_path(*PAIRS[0])
        data = json.loads(path.read_text())
        assert path.read_text() == json.dumps(data, sort_keys=True)

    def test_trace_files_shared_between_configs(self, tmp_path):
        engine = _engine(tmp_path, "trace", jobs=2)
        engine.run(PAIRS)
        files = os.listdir(engine.cache.root / "traces")
        # One .atrace per workload, not per pair, and one sidecar per
        # derived entry of each (range stream, chunks, solo op table).
        names = [engine.cache._trace_path(w).name
                 for w in ("client_000", "server_000")]
        assert sorted(f for f in files if f.endswith(".atrace")) == names
        assert sorted(f.split(".atrace.")[0] + ".atrace" for f in files
                      if f.endswith(".derived")) == \
            [names[0]] * 3 + [names[1]] * 3


class TestPrecomputeOnce:
    def test_parallel_fill_builds_each_trace_once(self, tmp_path,
                                                  monkeypatch):
        """Each builder runs once per trace across a --jobs 2 fill: the
        worker that did not build a trace loads its precompute from the
        sidecars the pioneer wrote. The workers inherit the counting
        builders by fork and log each call to a shared file."""
        import repro.cpu.backend as backend_mod
        import repro.cpu.machine as machine_mod
        from repro.cpu.precompute import precompute_fingerprint
        from repro.trace.io import read_trace

        precompute_fingerprint()      # inherited: no probe builds counted
        log = tmp_path / "builds.log"
        for owner, name in ((machine_mod, "precompute_range_stream"),
                            (machine_mod, "segment_stream"),
                            (backend_mod, "build_op_table")):
            real = getattr(owner, name)

            def counting(trace, *args, _real=real, _name=name):
                with open(log, "a") as fh:
                    fh.write(f"{_name} {trace.digest}\n")
                return _real(trace, *args)

            monkeypatch.setattr(owner, name, counting)
        engine = _engine(tmp_path, "once", jobs=2)
        engine.run(PAIRS)
        digests = {read_trace(engine.cache._trace_path(w)).digest
                   for w in ("server_000", "client_000")}
        calls = log.read_text().split("\n")[:-1]
        assert sorted(calls) == sorted(
            f"{name} {digest}" for digest in digests
            for name in ("precompute_range_stream", "segment_stream",
                         "build_op_table"))


class TestPersistent:
    def test_persistent_pool_hands_traces_off_through_disk(self, tmp_path):
        """A persistent pool survives run() and is shut down only by an
        idempotent close(); its workers read traces from the trace cache,
        so a warm sweep (every trace already on disk) creates no
        shared-memory segment while it runs."""
        before = _shm_entries()
        seen = []

        class SampleShm(ProgressObs):
            """Samples /dev/shm as each pair of the warm sweep lands."""

            def pair_done(self, workload, config, result=None):
                if sampling:
                    seen.append(_shm_entries())

        sampling = False
        engine = SweepEngine(jobs=2, cache=ResultCache(tmp_path / "p"),
                             obs=SampleShm(), persistent=True)
        with engine:
            engine.run(PAIRS)              # pioneer runs generate traces
            pool = engine._pool
            assert pool is not None
            sampling = True
            engine.run([("server_000", "conv64"),
                        ("server_000", "small16"),
                        ("client_000", "conv64"),
                        ("client_000", "small16")])
            assert engine._pool is pool    # same warm pool
            assert engine.pairs_simulated == 4
        assert seen == [before] * 4
        assert engine._pool is None
        engine.close()                     # idempotent
        assert engine._pool is None

    def test_persistent_results_match_throwaway(self, tmp_path):
        persistent = SweepEngine(jobs=1, cache=ResultCache(tmp_path / "a"),
                                 persistent=True)
        with persistent:
            first = persistent.run(PAIRS)
            again = persistent.run(PAIRS)  # warm: answered from cache
            assert persistent.pairs_simulated == 0
        throwaway = _engine(tmp_path, "b", jobs=1).run(PAIRS)
        for pair in PAIRS:
            assert first[pair].cycles == throwaway[pair].cycles
            assert again[pair].cycles == first[pair].cycles

    def test_persistent_inline_memo_reused(self, tmp_path):
        """At jobs=1 a persistent engine memoises decoded traces across
        run() calls: the second sweep's workloads decode zero traces."""
        engine = SweepEngine(jobs=1, cache=ResultCache(tmp_path / "m"),
                             persistent=True)
        with engine:
            engine.run(PAIRS)
            assert set(engine._memo) == {"server_000", "client_000"}
            traces_before = {w: id(t) for w, t in engine._memo.items()}
            engine.run([("server_000", "conv64"),
                        ("client_000", "conv64")])
            # Same ArrayTrace objects: nothing was re-decoded.
            assert {w: id(t) for w, t in engine._memo.items()} == \
                traces_before
