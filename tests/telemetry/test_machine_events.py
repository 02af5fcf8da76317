"""The machine emits every documented event kind with sane fields."""

import json
from pathlib import Path

import pytest

import repro
from repro import Machine, build_icache, get_workload
from repro.telemetry import (
    DRAM_ROW,
    FTQ,
    L1I,
    MSHR,
    PREDICTOR,
    RUN_SUMMARY,
    STALL,
    EventTrace,
    Telemetry,
)


class TestEventStream:
    def test_kinds_present_for_ubs(self, recorded_run):
        _, _, recorder = recorded_run
        kinds = {e.kind for e in recorder}
        for kind in (STALL, L1I, FTQ, MSHR, DRAM_ROW, PREDICTOR,
                     RUN_SUMMARY):
            assert kind in kinds, kind

    def test_exactly_one_run_summary(self, recorded_run):
        _, _, recorder = recorded_run
        assert len(recorder.of_kind(RUN_SUMMARY)) == 1

    def test_stall_fields(self, recorded_run):
        _, _, recorder = recorded_run
        stalls = recorder.of_kind(STALL)
        assert stalls
        for e in stalls:
            assert e.fields["cause"] in ("miss", "resteer", "backend")
            assert e.fields["cycles"] >= 1
            assert "pc" in e.fields

    def test_l1i_events_are_misses_by_default(self, recorded_run):
        _, _, recorder = recorded_run
        outcomes = {e.fields["result"] for e in recorder.of_kind(L1I)}
        assert "HIT" not in outcomes
        assert "FULL_MISS" in outcomes

    def test_mshr_sources(self, recorded_run):
        _, _, recorder = recorded_run
        sources = {e.fields["source"] for e in recorder.of_kind(MSHR)}
        assert sources <= {"demand", "fdip", "nextline"}
        assert "fdip" in sources

    def test_predictor_ops(self, recorded_run):
        _, _, recorder = recorded_run
        ops = {e.fields["op"] for e in recorder.of_kind(PREDICTOR)}
        assert "insert" in ops
        installs = [e for e in recorder.of_kind(PREDICTOR)
                    if e.fields["op"] == "install"]
        assert installs
        for e in installs:
            assert e.fields["way_size"] >= e.fields["run_len"]

    def test_ftq_samples(self, recorded_run):
        _, _, recorder = recorded_run
        samples = recorder.of_kind(FTQ)
        assert samples
        for e in samples:
            assert 0 <= e.fields["occupancy"] <= 128
            assert e.fields["mshr"] >= 0

    def test_record_hits_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.03")
        workload = get_workload("spec_000")
        trace = workload.generate()
        recorder = EventTrace(record_hits=True)
        machine = Machine(trace, build_icache("conv32"),
                          telemetry=Telemetry(recorder))
        machine.run(*workload.windows())
        outcomes = {e.fields["result"] for e in recorder.of_kind(L1I)}
        assert "HIT" in outcomes


#: Runs whose ``ftq`` samples are pinned: a solo run, whose fetch-port
#: owner never parks, and an ICOUNT co-run with a shallow FTQ, whose
#: owner changes often.
FTQ_SAMPLE_RUNS = (("server_000", "conv32"),
                   ("smt:server_000+client_000@icount", "conv32_f8"))
FTQ_SAMPLES_GOLDEN = (Path(__file__).resolve().parents[1] / "golden"
                      / "ftq_samples__s0.05.json")


def ftq_samples(workload: str, config: str) -> list:
    """``[cycle, occupancy, mshr, thread]`` of every ``ftq`` event."""
    recorder = EventTrace()
    repro.simulate(workload, config, telemetry=Telemetry(recorder))
    return [[e.cycle, e.fields["occupancy"], e.fields["mshr"],
             e.fields.get("thread")] for e in recorder.of_kind(FTQ)]


@pytest.mark.parametrize("workload,config", FTQ_SAMPLE_RUNS)
def test_ftq_samples_pinned(monkeypatch, workload, config):
    """The sampled FTQ occupancy of every live thread, the fetch-port
    owner's included, equals the samples recorded when the FTQ was a
    queue of range objects."""
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    golden = json.loads(FTQ_SAMPLES_GOLDEN.read_text())
    assert ftq_samples(workload, config) == golden[f"{workload}::{config}"]
