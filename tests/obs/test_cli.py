"""The ``python -m repro.obs`` CLI: report / tail exits."""

import json

import pytest

from repro.obs.__main__ import main
from repro.obs.runs import Heartbeat, ObsRun


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.03")


@pytest.fixture
def finished_run(tmp_path):
    run = ObsRun(tmp_path / "run", "run_all", argv=["run_all"])
    with run.tracer.span("sweep"):
        with run.tracer.span("pair", key="w::c"):
            pass
    run.finish(metrics={"pairs_simulated": 1})
    return tmp_path / "run"


class TestReport:
    def test_report_ok(self, finished_run, capsys):
        assert main(["report", str(finished_run)]) == 0
        out = capsys.readouterr().out
        assert "kind=run_all" in out
        assert "pair w::c" in out

    def test_report_json(self, finished_run, capsys):
        assert main(["report", str(finished_run), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["spans"] == 3
        assert data["manifest"]["kind"] == "run_all"

    def test_not_a_run_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "not a run directory" in capsys.readouterr().err


class TestTail:
    def test_once_on_finished_run(self, finished_run, capsys):
        assert main(["tail", str(finished_run), "--once"]) == 0
        out = capsys.readouterr().out
        assert "tailing run" in out
        assert "run finished: status OK" in out

    def test_once_on_live_run(self, tmp_path, capsys):
        run = ObsRun(tmp_path / "run", "run_all")
        beat = Heartbeat(tmp_path / "run", pid=99)
        beat.beat("run", workload="w", config="c")
        assert main(["tail", str(tmp_path / "run"), "--once"]) == 0
        out = capsys.readouterr().out
        assert "worker 99: run w::c" in out
        assert "run finished" not in out
        run.finish()

    def test_timeout_on_live_run(self, tmp_path, capsys):
        run = ObsRun(tmp_path / "run", "run_all")
        code = main(["tail", str(tmp_path / "run"),
                     "--interval", "0.01", "--timeout", "0.05"])
        assert code == 3
        assert "tail timeout" in capsys.readouterr().err
        run.finish()

