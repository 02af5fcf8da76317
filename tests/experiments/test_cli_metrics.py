"""The key set of ``metrics.json["metrics"]`` each fill CLI writes.

``run_all``, ``smt_matrix`` and ``dse`` each finish an ``--obs-dir`` run
with the result cache's counters plus figures of their own. Those keys
are what ``python -m repro.obs report`` and downstream scripts read, so
their names are pinned here, for a small local run of each
(``metrics.json`` is written with sorted keys).
"""

import json

import pytest

import repro.experiments.run_all as run_all_mod
import repro.experiments.runner as runner_mod
from repro.experiments import dse, smt_matrix

CACHE_KEYS = ["result_cache.hits", "result_cache.misses",
              "result_cache.stores", "result_cache.corrupt_evicted"]


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.02")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_OBS_DIR", raising=False)
    monkeypatch.delenv("REPRO_SERVER", raising=False)
    monkeypatch.setattr(runner_mod, "_default_cache", None)


def _metrics(obs_dir) -> dict:
    data = json.loads((obs_dir / "metrics.json").read_text())
    assert data["status"] == "OK"
    return data["metrics"]


def test_run_all_keys(tmp_path, monkeypatch):
    monkeypatch.setattr(run_all_mod, "all_pairs",
                        lambda: [("spec_000", "conv32")])
    obs_dir = tmp_path / "obs"
    assert run_all_mod.main(["--obs-dir", str(obs_dir)]) == 0
    metrics = _metrics(obs_dir)
    assert sorted(metrics) == sorted(CACHE_KEYS + [
        "pairs_selected", "pairs_simulated", "fill_seconds",
        "fill_pairs_per_min"])
    assert metrics["pairs_simulated"] == 1


def test_smt_matrix_keys(tmp_path):
    obs_dir = tmp_path / "obs"
    assert smt_matrix.main(["--workloads", "spec_000", "--configs",
                            "conv32", "--obs-dir", str(obs_dir)]) == 0
    metrics = _metrics(obs_dir)
    assert sorted(metrics) == sorted(CACHE_KEYS + [
        "pairs_selected", "pairs_simulated", "fill_seconds"])
    assert metrics["pairs_simulated"] == 2


def test_dse_keys(tmp_path):
    obs_dir = tmp_path / "obs"
    assert dse.main(["--strategy", "random", "--budget-evals", "1",
                     "--workloads", "spec_000", "--out",
                     str(tmp_path / "out"), "--obs-dir", str(obs_dir)]) == 0
    metrics = _metrics(obs_dir)
    assert sorted(metrics) == sorted(CACHE_KEYS + [
        "evaluations", "generations", "pairs_simulated", "evals_resumed"])
    assert metrics["evaluations"] == 1


class _StubRemoteEngine:
    """A :class:`repro.service.RemoteEngine` stand-in that "simulates"
    every pair on the daemon, leaving the client's cache untouched."""

    def __init__(self, address, obs=None):
        self.address = address
        self.fill_seconds = 0.5
        self.pairs_simulated = 0
        self.pairs_per_min = 0.0

    def run(self, pairs, progress=None):
        self.pairs_simulated = len(pairs)
        return {}

    def close(self):
        pass


def test_routed_run_leaves_out_client_cache_counters(tmp_path, monkeypatch):
    """Through a daemon the client's result-cache counters always read 0,
    so ``metrics.json`` names the server instead of reporting them."""
    import repro.service as service

    monkeypatch.setattr(service, "probe", lambda address: {"jobs": 2,
                                                           "pid": 1})
    monkeypatch.setattr(service, "RemoteEngine", _StubRemoteEngine)
    monkeypatch.setattr(run_all_mod, "all_pairs",
                        lambda: [("spec_000", "conv32"),
                                 ("spec_000", "ubs")])
    obs_dir = tmp_path / "obs"
    assert run_all_mod.main(["--obs-dir", str(obs_dir),
                             "--server", "unix:/stub.sock"]) == 0
    metrics = _metrics(obs_dir)
    assert sorted(metrics) == sorted([
        "pairs_selected", "pairs_simulated", "fill_seconds",
        "fill_pairs_per_min", "server"])
    assert metrics["server"] == "unix:/stub.sock"
    assert metrics["pairs_simulated"] == 2
