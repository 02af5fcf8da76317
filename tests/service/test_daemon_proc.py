"""Process-level daemon tests: SIGTERM drain and kill -9 restart.

These spawn ``python -m repro.service serve`` as a real subprocess (its
own interpreter, signal handling, exit code), so they cover exactly what
the in-process tests cannot: delivery of real signals and recovery from
an unclean death.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.pool import pair_key
from repro.service.client import ServiceClient, probe

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

DRAIN_PAIRS = [
    (workload, config)
    for workload in ("server_000", "client_000")
    for config in ("conv32", "ubs", "conv64", "small16", "small32",
                   "distill32")
]


def _spawn_daemon(tmp_path: Path, sock: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["REPRO_SCALE"] = "0.03"
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve",
         "--socket", str(sock), "--jobs", "1", "--idle-timeout", "120"],
        env=env, cwd=str(tmp_path),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 30
    while probe(f"unix:{sock}") is None:
        if time.monotonic() > deadline or process.poll() is not None:
            out = process.stdout.read().decode(errors="replace") \
                if process.stdout else ""
            pytest.fail(f"daemon did not come up:\n{out}")
        time.sleep(0.1)
    return process


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    # The *client* side of these tests must agree on the scale the
    # daemon subprocess is pinned to.
    monkeypatch.setenv("REPRO_SCALE", "0.03")


def test_sigterm_drains_in_flight_job(tmp_path):
    """SIGTERM mid-job: the daemon finishes every accepted pair, then
    exits 0; nothing is abandoned half-simulated."""
    sock = tmp_path / "svc.sock"
    process = _spawn_daemon(tmp_path, sock)
    try:
        with ServiceClient(f"unix:{sock}") as client:
            job_id = client.submit(DRAIN_PAIRS)
        time.sleep(0.1)          # let the batch start
        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=120)
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup
            process.kill()
            process.wait()
    assert code == 0
    assert not sock.exists()

    # Every pair of the accepted job made it into the result cache, and
    # the journal closed the job out as done.
    results_dir = tmp_path / "cache" / "results"
    assert len(list(results_dir.glob("*.json"))) == len(DRAIN_PAIRS)
    journal = (tmp_path / "cache" / "service" / "jobs.jsonl").read_text()
    assert f'"job_id": "{job_id}", "kind": "submit"' in journal
    assert f'"job_id": "{job_id}", "kind": "done"' in journal


def test_kill_dash_nine_then_restart_serves_from_journal(tmp_path):
    """SIGKILL after a job completed: a restarted daemon serves that
    job's results from the journal + cache with zero resimulation."""
    sock = tmp_path / "svc.sock"
    first = _spawn_daemon(tmp_path, sock)
    pairs = DRAIN_PAIRS[:4]
    try:
        with ServiceClient(f"unix:{sock}") as client:
            job_id = client.submit(pairs)
            while client.wait_slice(job_id)["status"] in ("queued",
                                                          "running"):
                pass
    finally:
        first.kill()
        first.wait(timeout=30)

    second = _spawn_daemon(tmp_path, sock)   # stale socket file replaced
    try:
        with ServiceClient(f"unix:{sock}") as client:
            assert client.status(job_id)["status"] == "done"
            results = client.results(job_id)
            stats = client.stats()
            client.shutdown()
        code = second.wait(timeout=60)
    finally:
        if second.poll() is None:  # pragma: no cover - cleanup
            second.kill()
            second.wait()
    assert set(results) == {pair_key(*p) for p in pairs}
    assert stats["pairs_simulated"] == 0
    assert code == 0
