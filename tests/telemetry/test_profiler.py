"""StageProfiler wrapping, reporting and machine integration."""

import pytest

from repro import Machine, build_icache, get_workload
from repro.telemetry import StageProfiler, Telemetry
from repro.telemetry.profiler import ProfileReport


class TestProfiler:
    def test_wrap_times_and_counts(self):
        prof = StageProfiler()
        calls = []
        fn = prof.wrap("stage", lambda x: calls.append(x) or x + 1)
        assert fn(1) == 2
        assert fn(5) == 6
        assert prof.stage_calls["stage"] == 2
        assert prof.stage_seconds["stage"] >= 0.0

    def test_wrap_charges_time_on_exception(self):
        prof = StageProfiler()

        def boom():
            raise ValueError("x")

        wrapped = prof.wrap("s", boom)
        with pytest.raises(ValueError):
            wrapped()
        assert prof.stage_calls["s"] == 1

    def test_charge_accumulates_seconds_and_calls(self):
        prof = StageProfiler()
        prof.charge("scan", 0.25)
        prof.charge("scan", 0.5)
        prof.charge("store", 0.125)
        assert prof.stage_seconds == {"scan": 0.75, "store": 0.125}
        assert prof.stage_calls == {"scan": 2, "store": 1}

    def test_report_throughput(self):
        prof = StageProfiler()
        prof.wall_seconds = 2.0
        prof.stage_seconds["bpu"] = 0.5
        report = prof.report(cycles=1000, instructions=400)
        assert report.cycles_per_sec == pytest.approx(500.0)
        assert report.instrs_per_sec == pytest.approx(200.0)
        assert report.other_seconds == pytest.approx(1.5)
        assert report.to_dict()["cycles_per_sec"] == pytest.approx(500.0)

    def test_zero_wall_report(self):
        report = ProfileReport(wall_seconds=0.0)
        assert report.cycles_per_sec == 0.0
        assert report.instrs_per_sec == 0.0

    def test_format_lists_stages(self):
        prof = StageProfiler()
        prof.wall_seconds = 1.0
        prof.stage_seconds.update({"bpu": 0.2, "custom": 0.1})
        prof.stage_calls.update({"bpu": 10, "custom": 5})
        text = prof.report(cycles=10, instructions=5).format()
        assert "bpu" in text and "custom" in text
        assert "cycles/s" in text


class TestMachineIntegration:
    def test_profiled_run_times_every_stage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.03")
        workload = get_workload("spec_000")
        trace = workload.generate()
        prof = StageProfiler()
        machine = Machine(trace, build_icache("ubs"),
                          telemetry=Telemetry(profiler=prof))
        machine.run(*workload.windows())
        report = machine.profile_report()
        assert report is not None
        for stage in ("fills", "bpu", "fdip", "fetch", "backend"):
            assert report.stage_calls.get(stage, 0) > 0, stage
        assert report.wall_seconds > 0
        assert report.cycles == machine.cycle
        assert report.cycles_per_sec > 0
        assert machine.wall_seconds > 0

    def test_unprofiled_machine_has_no_report(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.03")
        workload = get_workload("spec_000")
        machine = Machine(workload.generate(), build_icache("conv32"))
        machine.run(*workload.windows())
        assert machine.profile_report() is None
        assert machine.wall_seconds > 0

    def test_corun_profiles_every_stage_without_changing_results(
            self, monkeypatch):
        """Co-runs go through the same stage hooks as solo runs, and the
        wrappers only time — they never change a result."""
        from repro.smt import SMTMachine
        from repro.telemetry.profiler import STAGES
        monkeypatch.setenv("REPRO_SCALE", "0.03")
        workloads = [get_workload("spec_000"), get_workload("client_000")]
        traces = [w.generate() for w in workloads]
        windows = [w.windows() for w in workloads]
        prof = StageProfiler()
        profiled = SMTMachine(traces, build_icache("ubs"),
                              telemetry=Telemetry(profiler=prof))
        result = profiled.run(windows)
        report = profiled.profile_report()
        for stage in STAGES:
            assert report.stage_calls.get(stage, 0) > 0, stage
        assert report.cycles == profiled.cycle
        plain = SMTMachine(traces, build_icache("ubs")).run(windows)
        assert result.to_dict() == plain.to_dict()
