"""CLI tests."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "server_001" in out
        assert "google_000" in out

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out and "Table IV" in out
        assert "2.46" in out

    def test_run(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        assert main(["run", "spec_000", "conv32"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "MPKI" in out

    def test_compare(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        assert main(["compare", "spec_000", "conv32", "ubs"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_workload_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            main(["run", "not_a_workload"])


class TestTelemetryCLI:
    @pytest.fixture(autouse=True)
    def small_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")

    def test_run_json(self, capsys):
        import json
        assert main(["run", "spec_000", "conv32", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "spec_000"
        assert payload["config"] == "conv32"
        assert payload["schema_version"] >= 2
        assert payload["cycles"] > 0

    def test_run_trace_and_report(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["run", "spec_000", "ubs",
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert trace.exists()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "stall cycles by cause" in out
        assert "miss" in out and "resteer" in out
        assert "event totals match run summary counters" in out

    def test_report_totals_match_run(self, capsys, tmp_path):
        """Acceptance: report sums equal the run's FrontEndStats."""
        import re
        import repro
        from repro.telemetry import EventTrace, Telemetry
        tel = Telemetry(EventTrace())
        result = repro.simulate("spec_000", "ubs", telemetry=tel)
        from repro.__main__ import _export_trace
        trace = tmp_path / "t.jsonl"
        _export_trace(tel.recorder, result, str(trace))
        main(["report", str(trace)])
        out = capsys.readouterr().out
        miss = int(re.search(r"miss\s+(\d+) cycles", out).group(1))
        resteer = int(re.search(r"resteer\s+(\d+) cycles", out).group(1))
        assert miss == result.frontend.fetch_stall_cycles
        assert resteer == result.frontend.mispredict_stall_cycles

    def test_run_trace_csv(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        assert main(["run", "spec_000", "ubs",
                     "--trace-out", str(trace)]) == 0
        first = trace.read_text().splitlines()[0]
        assert first.startswith("kind,cycle")

    def test_run_metrics_out(self, capsys, tmp_path):
        import json
        metrics = tmp_path / "m.json"
        assert main(["run", "spec_000", "ubs",
                     "--metrics-out", str(metrics)]) == 0
        snap = json.loads(metrics.read_text())
        assert "frontend.fetch_stall_cycles" in snap
        assert "l1i.hits" in snap

    def test_run_profile(self, capsys):
        assert main(["run", "spec_000", "conv32", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cycles/s" in out
        assert "backend" in out

    def test_compare_json(self, capsys):
        import json
        assert main(["compare", "spec_000", "conv32", "ubs",
                     "--json"]) == 0
        payloads = json.loads(capsys.readouterr().out)
        assert len(payloads) == 2
        assert payloads[0]["config"] == "conv32"
        assert "speedup" in payloads[1]

    def test_zero_cycle_result_prints(self, capsys):
        from repro.__main__ import _print_result
        from repro.stats.counters import SimResult
        _print_result(SimResult(workload="w", config="c",
                                instructions=0, cycles=0))
        out = capsys.readouterr().out
        assert "icache-stall" in out  # no ZeroDivisionError


class TestSharedPath:
    """``run`` and ``compare`` build and run a pair as repro.simulate
    does, so they take every name it takes: ``_f<N>`` suffixes and
    ``smt:`` co-runs."""

    @pytest.fixture(autouse=True)
    def small_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")

    @pytest.mark.parametrize("workload,config", [
        ("server_000", "conv32_f16"),
        ("smt:server_000+client_000", "ubs"),
        ("smt:server_000+client_000", "ubs_f64"),
    ])
    def test_run_json_equals_simulate(self, capsys, workload, config):
        import json

        import repro
        assert main(["run", workload, config, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = repro.simulate(workload, config).to_dict()
        assert payload == json.loads(json.dumps(expected))

    def test_compare_corun(self, capsys):
        import json

        import repro
        workload = "smt:server_000+client_000"
        assert main(["compare", workload, "conv32", "ubs_f64",
                     "--json"]) == 0
        base, other = json.loads(capsys.readouterr().out)
        assert "speedup" in other and "stall_coverage" in other
        del other["speedup"], other["stall_coverage"]
        for payload, config in ((base, "conv32"), (other, "ubs_f64")):
            expected = repro.simulate(workload, config).to_dict()
            assert payload == json.loads(json.dumps(expected))
