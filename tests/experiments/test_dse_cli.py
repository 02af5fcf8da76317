"""End-to-end tests of ``python -m repro.experiments.dse``.

Two contracts the CLI must honour regardless of environment:

* ``--jobs`` is pure mechanism — the journal and report for a fixed
  (strategy, seed, workloads, scale) are identical at any parallelism,
  modulo the completion order of journal lines;
* a killed search resumes from its journal without re-simulating any
  completed point and still produces a byte-identical report.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
BASE_ARGS = [sys.executable, "-m", "repro.experiments.dse",
             "--strategy", "random", "--budget-evals", "4",
             "--seed", "9", "--workloads", "server_000"]


def dse_env(cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_SCALE"] = "0.02"
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def _live_children(pid):
    """PIDs of the live (non-zombie) processes whose parent is ``pid``."""
    out = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _proc_stat(int(entry.name))
            if stat is not None and stat[1] == pid and stat[0] != "Z":
                out.append(int(entry.name))
    return out


def _proc_stat(pid):
    """(state, ppid) of ``pid`` from ``/proc``, or None once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = text.rsplit(")", 1)[1].split()
    return fields[0], int(fields[1])


def run_cli(out_dir, cache_dir, *extra, check=True):
    proc = subprocess.run(
        BASE_ARGS + ["--out", str(out_dir), *extra],
        env=dse_env(cache_dir), cwd=REPO,
        capture_output=True, text=True, timeout=600)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def journal_lines(out_dir):
    lines = (Path(out_dir) / "journal.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


@pytest.mark.slow
class TestJobsParity:
    def test_serial_and_parallel_journals_match(self, tmp_path):
        serial = run_cli(tmp_path / "serial", tmp_path / "cache1",
                         "--jobs", "1")
        parallel = run_cli(tmp_path / "parallel", tmp_path / "cache2",
                           "--jobs", "4")

        s_records = journal_lines(tmp_path / "serial")
        p_records = journal_lines(tmp_path / "parallel")
        assert s_records[0] == p_records[0]          # same header
        assert "jobs" not in s_records[0]            # mechanism, not policy

        def by_key(records):
            return {r["key"]: r for r in records[1:]}

        assert by_key(s_records) == by_key(p_records)

        report_s = (tmp_path / "serial" / "report.txt").read_bytes()
        report_p = (tmp_path / "parallel" / "report.txt").read_bytes()
        assert report_s == report_p
        assert (tmp_path / "serial" / "pareto.json").read_bytes() == \
            (tmp_path / "parallel" / "pareto.json").read_bytes()
        assert "simulated-pairs 0" not in serial.stdout
        assert "resumed 0" in serial.stdout
        assert "resumed 0" in parallel.stdout


@pytest.mark.slow
class TestKillResume:
    def test_sigkill_then_resume_is_lossless(self, tmp_path):
        out = tmp_path / "search"
        cache = tmp_path / "cache"
        journal = out / "journal.jsonl"

        # Start a search and SIGKILL it once at least one evaluation has
        # been journaled (but before it can finish).
        proc = subprocess.Popen(
            BASE_ARGS + ["--out", str(out), "--jobs", "1"],
            env=dse_env(cache), cwd=REPO,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.time() + 300
            while time.time() < deadline:
                if journal.exists() and \
                        len(journal.read_text().splitlines()) >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("journal never gained an evaluation")
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()

        survivors = {r["key"] for r in journal_lines(out)[1:]}

        # Resume to completion; the surviving points must not re-run.
        resumed = run_cli(out, cache, "--jobs", "1")
        assert f"resumed {len(survivors)}" in resumed.stdout

        # A fresh, never-killed search must agree byte-for-byte.
        run_cli(tmp_path / "fresh", tmp_path / "cache_fresh", "--jobs", "1")
        assert (out / "report.txt").read_bytes() == \
            (tmp_path / "fresh" / "report.txt").read_bytes()
        assert (out / "pareto.json").read_bytes() == \
            (tmp_path / "fresh" / "pareto.json").read_bytes()

        # Replaying the finished journal simulates nothing at all, even
        # against an empty result cache.
        replay = run_cli(out, tmp_path / "cache_cold", "--jobs", "1")
        assert "evals 4 resumed 4 simulated-pairs 0" in replay.stdout


@pytest.mark.slow
class TestObsDir:
    def test_generation_spans_nest_sweeps(self, tmp_path):
        from repro.obs.report import report_data

        obs_dir = tmp_path / "obs"
        run_cli(tmp_path / "search", tmp_path / "cache",
                "--jobs", "2", "--obs-dir", str(obs_dir))
        data = report_data(obs_dir)
        assert data["manifest"]["kind"] == "dse"
        assert data["metrics"]["status"] == "OK"
        (root,) = data["tree"]
        gens = [c for c in root["children"] if c["name"].startswith("gen")]
        assert gens                       # at least one generation span
        # Each simulated pair's span sits under a sweep under its
        # generation; cached evaluations contribute no sweep at all.
        pair_keys = [
            pair["attributes"]["key"]
            for gen in gens for sweep in gen["children"]
            for pair in sweep["children"]]
        assert len(pair_keys) == len(set(pair_keys))
        assert data["metrics"]["metrics"]["pairs_simulated"] == \
            len(pair_keys)
        assert data["coverage"] >= 0.95

    def test_sigkill_leaves_readable_spans(self, tmp_path):
        """A SIGKILLed run's spans.jsonl must still parse line-by-line
        (at worst a truncated final line), and report must render the
        partial tree post-mortem."""
        from repro.obs.report import report_data
        from repro.obs.spans import read_spans

        out = tmp_path / "search"
        obs_dir = tmp_path / "obs"
        spans_path = obs_dir / "spans.jsonl"
        proc = subprocess.Popen(
            BASE_ARGS + ["--out", str(out), "--jobs", "2",
                         "--obs-dir", str(obs_dir)],
            env=dse_env(tmp_path / "cache"), cwd=REPO,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        children = []
        try:
            deadline = time.time() + 300
            while time.time() < deadline and proc.poll() is None:
                children = _live_children(proc.pid)
                if spans_path.exists() and spans_path.stat().st_size > 0 \
                        and children:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("no span was written while pool workers ran")
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()

        # The pool workers (and anything else the CLI started) exit with
        # it instead of living on, re-parented to init.
        deadline = time.time() + 30
        survivors = children
        while survivors and time.time() < deadline:
            time.sleep(0.05)
            survivors = [pid for pid in survivors
                         if (_proc_stat(pid) or ("Z",))[0] != "Z"]
        assert not survivors, f"children outlived the killed CLI: {survivors}"

        spans = read_spans(spans_path)    # must not raise
        assert spans
        for record in spans:
            assert record["trace_id"] == spans[0]["trace_id"]
        # The run died before finish(): no metrics.json, report falls
        # back to span extents and labels the run as not finished.
        assert not (obs_dir / "metrics.json").exists()
        data = report_data(obs_dir)
        assert data["metrics"] is None
        assert data["spans"] == len(spans)
