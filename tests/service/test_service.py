"""In-process daemon tests: parity with the local engine, cross-client
single-flight, job lifecycle (cancel, journal restore), span
threading and idle shutdown.

Everything runs at ``REPRO_SCALE=0.03`` on a unix socket under
``tmp_path``; daemon + client live in one process (separate threads), so
these stay tier-1 fast. Process-level behaviour (SIGTERM, kill -9) is in
``test_daemon_proc.py``.
"""

import json
import threading
import time
from pathlib import Path

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.pool import SweepEngine, pair_key
from repro.experiments.runner import ResultCache
from repro.obs.hooks import RunObs
from repro.obs.runs import ObsRun
from repro.obs.spans import read_spans
from repro.service.client import RemoteEngine, ServiceClient, probe
from repro.service.protocol import ServiceError
from repro.service.server import ServiceServer

PAIRS = [
    ("server_000", "conv32"),
    ("server_000", "ubs"),
    ("client_000", "conv32"),
    ("client_000", "ubs"),
]

VOLATILE = ("sim_wall_seconds", "sim_cycles_per_sec", "sim_instrs_per_sec")


def _masked_results(cache: ResultCache) -> dict:
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
    monkeypatch.setattr(runner_mod, "_default_cache", None)


@pytest.fixture
def server(tmp_path):
    srv = ServiceServer(f"unix:{tmp_path / 'svc.sock'}", jobs=1,
                        cache=ResultCache(tmp_path / "cache"))
    srv.start()
    yield srv
    srv.close()


def _address(server: ServiceServer) -> str:
    return server.address


class TestRoundTrip:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_byte_identical_to_local_engine(self, tmp_path, jobs):
        """A fill through the daemon must leave the same result-cache
        bytes (modulo host timings) as a local SweepEngine fill."""
        srv = ServiceServer(f"unix:{tmp_path / 'svc.sock'}", jobs=jobs,
                            cache=ResultCache(tmp_path / "daemon_cache"))
        srv.start()
        try:
            engine = RemoteEngine(srv.address)
            remote = engine.run(PAIRS)
            engine.close()
        finally:
            srv.close()
        local_cache = ResultCache(tmp_path / "local_cache")
        local = SweepEngine(jobs=1, cache=local_cache).run(PAIRS)

        assert engine.pairs_simulated == len(PAIRS)
        assert set(remote) == set(local) == set(PAIRS)
        for pair in PAIRS:
            assert remote[pair].cycles == local[pair].cycles
            assert remote[pair].to_dict()["frontend"] == \
                local[pair].to_dict()["frontend"]
        assert _masked_results(srv.cache) == _masked_results(local_cache)

    def test_warm_resubmit_simulates_nothing(self, server):
        first = RemoteEngine(server.address)
        first.run(PAIRS)
        first.close()
        again = RemoteEngine(server.address)
        results = again.run(PAIRS)
        again.close()
        assert again.pairs_simulated == 0
        assert set(results) == set(PAIRS)
        assert server.stats["pairs_simulated"] == len(PAIRS)

    def test_duplicate_pairs_deduped_within_job(self, server):
        engine = RemoteEngine(server.address)
        results = engine.run([PAIRS[0], PAIRS[0], PAIRS[0]])
        engine.close()
        assert engine.pairs_simulated == 1
        assert set(results) == {PAIRS[0]}

    def test_probe_and_ping(self, server):
        info = probe(server.address)
        assert info is not None
        assert info["scale"] == pytest.approx(0.03)
        assert info["jobs"] == 1
        assert probe("unix:/nonexistent/nowhere.sock") is None


class TestSingleFlight:
    def test_same_pair_from_two_clients_simulates_once(self, tmp_path):
        """Two jobs carrying the same pair, queued together, run as one
        deduplicated batch: exactly one simulation."""
        srv = ServiceServer(f"unix:{tmp_path / 'svc.sock'}", jobs=1,
                            cache=ResultCache(tmp_path / "cache"))
        # Queue both jobs BEFORE the sim thread exists, so they are
        # provably merged into one batch (the scheduling instant every
        # concurrent submission pattern reduces to).
        sub_a = srv.handle_message(
            {"op": "submit", "pairs": [list(PAIRS[0])]})
        sub_b = srv.handle_message(
            {"op": "submit", "pairs": [list(PAIRS[0])]})
        assert sub_a["ok"] and sub_b["ok"]
        assert sub_a["job_id"] != sub_b["job_id"]
        srv.start()
        try:
            for job_id in (sub_a["job_id"], sub_b["job_id"]):
                job = srv.handle_message(
                    {"op": "wait", "job_id": job_id, "timeout": 30})["job"]
                assert job["status"] == "done"
            res_a = srv.handle_message(
                {"op": "results", "job_id": sub_a["job_id"]})["results"]
            res_b = srv.handle_message(
                {"op": "results", "job_id": sub_b["job_id"]})["results"]
        finally:
            srv.close()
        assert srv.stats["pairs_requested"] == 2
        assert srv.stats["pairs_simulated"] == 1
        assert srv.stats["jobs_done"] == 2
        key = pair_key(*PAIRS[0])
        assert res_a[key] == res_b[key]

    def test_concurrent_clients_share_cache(self, server):
        """Racing clients over the socket: total simulations across both
        equals the number of distinct pairs."""
        errors = []

        def fill():
            try:
                engine = RemoteEngine(server.address)
                engine.run(PAIRS)
                engine.close()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=fill) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert server.stats["pairs_simulated"] == len(PAIRS)
        assert server.stats["jobs_done"] == 2


class TestValidationAndLifecycle:
    def test_unknown_workload_rejected(self, server):
        with pytest.raises(ServiceError, match="unknown workload"):
            with ServiceClient(server.address) as client:
                client.request("submit",
                               pairs=[["no_such_workload", "conv32"]])
        assert server.stats["jobs_submitted"] == 0

    def test_corun_names_validated(self):
        """A co-run passes when its components are suite workloads (the
        ``smt_matrix --server`` pairs), and names the bad component when
        one is not."""
        validate = ServiceServer._validate_pairs
        assert validate([("smt:server_000+client_000@icount", "ubs"),
                         ("smt:spec_000+spec_000", "conv32")]) is None
        assert "unknown workload 'no_such'" in \
            validate([("smt:server_000+no_such", "conv32")])

    def test_bad_config_rejected(self, server):
        with pytest.raises(ServiceError, match="bad config"):
            with ServiceClient(server.address) as client:
                client.request("submit",
                               pairs=[["server_000", "no_such_config"]])

    def test_malformed_config_rejected(self, server):
        """A name build_icache cannot parse is a "bad config" answer, not
        an internal error."""
        with pytest.raises(ServiceError, match="bad config 'conv32_x'"):
            with ServiceClient(server.address) as client:
                client.request("submit", pairs=[["server_000", "conv32_x"]])
        assert server.stats["jobs_submitted"] == 0

    def test_scale_mismatch_rejected(self, server):
        with pytest.raises(ServiceError, match="scale mismatch"):
            with ServiceClient(server.address) as client:
                client.request("submit", pairs=[list(PAIRS[0])], scale=0.5)

    def test_unknown_op_and_job(self, server):
        with ServiceClient(server.address) as client:
            with pytest.raises(ServiceError, match="unknown op"):
                client.request("frobnicate")
            with pytest.raises(ServiceError, match="unknown job"):
                client.status("not-a-job")

    def test_cancel_queued_job(self, tmp_path):
        srv = ServiceServer(f"unix:{tmp_path / 'svc.sock'}", jobs=1,
                            cache=ResultCache(tmp_path / "cache"))
        sub = srv.handle_message({"op": "submit",
                                  "pairs": [list(PAIRS[0])]})
        out = srv.handle_message({"op": "cancel", "job_id": sub["job_id"]})
        assert out["ok"] and out["job"]["status"] == "cancelled"
        # Cancelling a terminal job fails cleanly.
        again = srv.handle_message({"op": "cancel", "job_id": sub["job_id"]})
        assert not again["ok"]
        srv.start()
        srv.close()
        assert srv.stats["pairs_simulated"] == 0

    def test_draining_refuses_submits(self, server):
        server.stop("test drain")
        out = server.handle_message({"op": "submit",
                                     "pairs": [list(PAIRS[0])]})
        assert not out["ok"] and "draining" in out["error"]

    def test_shutdown_op_drains(self, tmp_path):
        srv = ServiceServer(f"unix:{tmp_path / 'svc.sock'}", jobs=1,
                            cache=ResultCache(tmp_path / "cache"))
        srv.start()
        with ServiceClient(srv.address) as client:
            client.shutdown()
        srv.join(timeout=10)
        assert not (tmp_path / "svc.sock").exists()

    def test_idle_timeout_self_shutdown(self, tmp_path):
        srv = ServiceServer(f"unix:{tmp_path / 'svc.sock'}", jobs=1,
                            cache=ResultCache(tmp_path / "cache"),
                            idle_timeout=0.2)
        srv.start()
        deadline = time.monotonic() + 10
        while not srv._stop_event.is_set() and time.monotonic() < deadline:
            time.sleep(0.05)
        srv.join(timeout=10)
        assert srv._draining
        assert not (tmp_path / "svc.sock").exists()

    def test_stale_socket_file_is_replaced(self, tmp_path):
        sock = tmp_path / "svc.sock"
        first = ServiceServer(f"unix:{sock}", jobs=1,
                              cache=ResultCache(tmp_path / "c1"))
        first.start()
        first.close()   # unlinks; recreate a stale file by hand
        sock.touch()
        second = ServiceServer(f"unix:{sock}", jobs=1,
                               cache=ResultCache(tmp_path / "c2"))
        second.start()
        try:
            assert probe(second.address) is not None
        finally:
            second.close()

    def test_live_socket_not_stolen(self, tmp_path, server):
        other = ServiceServer(server.address, jobs=1,
                              cache=ResultCache(tmp_path / "other"))
        with pytest.raises(ServiceError, match="already served"):
            other.start()
        assert probe(server.address) is not None


class TestJournalRestore:
    def test_restarted_daemon_serves_done_results(self, tmp_path):
        """A daemon built on a dead daemon's state dir answers
        ``results`` for journaled done jobs from the cache — zero
        resimulation."""
        sock = tmp_path / "svc.sock"
        cache_root = tmp_path / "cache"
        first = ServiceServer(f"unix:{sock}", jobs=1,
                              cache=ResultCache(cache_root))
        first.start()
        engine = RemoteEngine(first.address)
        engine.run(PAIRS)
        engine.close()
        with ServiceClient(first.address) as client:
            job_id = client.submit(PAIRS)
            client.wait_slice(job_id)
        first.close()

        second = ServiceServer(f"unix:{sock}", jobs=1,
                               cache=ResultCache(cache_root))
        second.start()
        try:
            with ServiceClient(second.address) as client:
                assert client.status(job_id)["status"] == "done"
                results = client.results(job_id)
        finally:
            second.close()
        assert set(results) == {pair_key(*p) for p in PAIRS}
        assert second.stats["pairs_simulated"] == 0

    def test_unfinished_job_resurfaces_as_lost(self, tmp_path):
        state = tmp_path / "state"
        first = ServiceServer(f"unix:{tmp_path / 'a.sock'}", jobs=1,
                              cache=ResultCache(tmp_path / "cache"),
                              state_dir=str(state))
        # Journal a submit with no matching done (daemon died mid-job).
        sub = first.handle_message({"op": "submit",
                                    "pairs": [list(PAIRS[0])]})
        second = ServiceServer(f"unix:{tmp_path / 'b.sock'}", jobs=1,
                               cache=ResultCache(tmp_path / "cache"),
                               state_dir=str(state))
        job = second.handle_message(
            {"op": "status", "job_id": sub["job_id"]})["job"]
        assert job["status"] == "lost"
        err = second.handle_message(
            {"op": "results", "job_id": sub["job_id"]})
        assert not err["ok"]

    def test_unknown_journaled_state_reads_as_lost(self, tmp_path):
        # An older daemon journaled queue-deadline expiries as "expired";
        # a restored job must still be in a terminal state, or ``wait``
        # would block for its whole slice.
        from repro.jsonl import append_record

        state = tmp_path / "state"
        state.mkdir()
        append_record(state / "jobs.jsonl", {
            "kind": "submit", "job_id": "old", "scale": 0.03,
            "pairs": [list(PAIRS[0])]})
        append_record(state / "jobs.jsonl", {
            "kind": "done", "job_id": "old", "status": "expired"})
        srv = ServiceServer(f"unix:{tmp_path / 'svc.sock'}", jobs=1,
                            cache=ResultCache(tmp_path / "cache"),
                            state_dir=str(state))
        job = srv.handle_message(
            {"op": "wait", "job_id": "old", "timeout": 5})["job"]
        assert job["status"] == "lost"


class TestSpanThreading:
    def test_daemon_pair_spans_join_client_trace(self, tmp_path):
        """With a client-side RunObs, server-side pair spans land in the
        client's spans.jsonl, parented under the client's sweep span —
        the same tree shape a local run produces."""
        srv = ServiceServer(f"unix:{tmp_path / 'svc.sock'}", jobs=1,
                            cache=ResultCache(tmp_path / "cache"))
        srv.start()
        obs = RunObs(ObsRun(tmp_path / "obs", "run_all"))
        try:
            engine = RemoteEngine(srv.address, obs=obs)
            engine.run(PAIRS)
            engine.close()
        finally:
            obs.finish()
            srv.close()
        spans = read_spans(obs.run.dir / "spans.jsonl")
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        assert len(by_name["sweep"]) == 1
        sweep = by_name["sweep"][0]
        pair_spans = by_name["pair"]
        assert len(pair_spans) == len(PAIRS)
        assert all(s["parent_span_id"] == sweep["span_id"]
                   for s in pair_spans)
        assert all(s["trace_id"] == sweep["trace_id"] for s in pair_spans)
        # The daemon recorded them (different thread, same pid here, but
        # the attributes carry the pair identity).
        keys = {s["attributes"]["key"] for s in pair_spans}
        assert keys == {pair_key(*p) for p in PAIRS}

    def test_warm_run_emits_no_sweep_span(self, tmp_path):
        srv = ServiceServer(f"unix:{tmp_path / 'svc.sock'}", jobs=1,
                            cache=ResultCache(tmp_path / "cache"))
        srv.start()
        try:
            warmup = RemoteEngine(srv.address)
            warmup.run(PAIRS)
            warmup.close()
            obs = RunObs(ObsRun(tmp_path / "obs", "run_all"))
            engine = RemoteEngine(srv.address, obs=obs)
            engine.run(PAIRS)
            engine.close()
            obs.finish()
        finally:
            srv.close()
        names = {s["name"]
                 for s in read_spans(tmp_path / "obs" / "spans.jsonl")}
        assert "sweep" not in names and "pair" not in names


class TestHygiene:
    def test_daemon_lifecycle_leaves_no_shm(self, tmp_path):
        before = _shm_entries()
        srv = ServiceServer(f"unix:{tmp_path / 'svc.sock'}", jobs=2,
                            cache=ResultCache(tmp_path / "cache"))
        srv.start()
        try:
            engine = RemoteEngine(srv.address)
            # Two sweeps over one workload, the second with the trace
            # already on disk and the daemon's pool warm: neither may
            # leave a /dev/shm entry behind.
            engine.run([("server_000", "conv32"), ("server_000", "ubs")])
            engine.run([("server_000", "conv64"),
                        ("server_000", "small16")])
            engine.close()
        finally:
            srv.close()
        assert _shm_entries() == before
