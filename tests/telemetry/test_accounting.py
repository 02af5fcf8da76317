"""StallAccounting: per-cause totals, histograms, top PCs, validation."""

from repro.telemetry import Event, EventTrace, StallAccounting, write_jsonl


def synthetic_events():
    return [
        Event("stall", 10, cause="miss", cycles=4, pc=0x100),
        Event("stall", 20, cause="miss", cycles=1, pc=0x100),
        Event("stall", 30, cause="resteer", cycles=9, pc=0x200),
        Event("stall", 40, cause="backend", cycles=2, pc=0x300),
        Event("ftq", 50, occupancy=1),  # ignored
        Event("run_summary", 60, cycles=100, instructions=50,
              fetch_stall_cycles=5, mispredict_stall_cycles=9),
    ]


class TestSynthetic:
    def test_cause_totals(self):
        acct = StallAccounting.from_events(synthetic_events())
        assert acct.cause_cycles["miss"] == 5
        assert acct.cause_cycles["resteer"] == 9
        assert acct.cause_cycles["backend"] == 2
        assert acct.total_stall_cycles == 16
        assert acct.cause_events["miss"] == 2

    def test_interval_histogram(self):
        acct = StallAccounting.from_events(synthetic_events())
        assert acct.interval_histogram("miss") == {4: 1, 1: 1}
        assert acct.interval_histogram("resteer") == {8: 1}

    def test_top_pcs(self):
        acct = StallAccounting.from_events(synthetic_events())
        top = acct.top_pcs(2)
        assert top[0] == (0x200, 9)
        assert top[1] == (0x100, 5)

    def test_validation_passes(self):
        acct = StallAccounting.from_events(synthetic_events())
        assert acct.validate_against_summary() == {}

    def test_validation_catches_mismatch(self):
        events = synthetic_events()
        events[-1] = Event("run_summary", 60, cycles=100,
                           fetch_stall_cycles=999,
                           mispredict_stall_cycles=9)
        acct = StallAccounting.from_events(events)
        assert acct.validate_against_summary() == {"miss": (5, 999)}

    def test_format_mentions_causes(self):
        text = StallAccounting.from_events(synthetic_events()).format()
        for token in ("miss", "resteer", "backend", "top", "match"):
            assert token in text

    def test_from_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(synthetic_events(), path)
        acct = StallAccounting.from_jsonl(path)
        assert acct.cause_cycles["miss"] == 5


class TestRealRun:
    def test_totals_match_frontend_counters(self, recorded_run):
        """The acceptance criterion: event sums == FrontEndStats exactly."""
        _, result, recorder = recorded_run
        acct = StallAccounting.from_events(recorder)
        fe = result.frontend
        assert acct.cause_cycles["miss"] == fe.fetch_stall_cycles
        assert acct.cause_cycles["resteer"] == fe.mispredict_stall_cycles
        assert (acct.cause_cycles["miss"] + acct.cause_cycles["resteer"]
                == fe.fetch_stall_cycles + fe.mispredict_stall_cycles)
        assert acct.validate_against_summary() == {}

    def test_summary_present(self, recorded_run):
        _, result, recorder = recorded_run
        acct = StallAccounting.from_events(recorder)
        assert acct.summary is not None
        assert acct.summary["cycles"] == result.cycles
        assert acct.summary["instructions"] == result.instructions

    def test_corun_summaries_sum_over_threads(self, monkeypatch):
        """A co-run trace ends with one run summary per hardware thread;
        the accounting checks its stall events against their sum and
        reports the co-run's span and instructions."""
        import repro

        monkeypatch.setenv("REPRO_SCALE", "0.02")
        recorder = EventTrace()
        result = repro.simulate("smt:spec_000+client_000", "ubs",
                                telemetry=repro.Telemetry(recorder))
        acct = StallAccounting.from_events(recorder)
        assert acct.validate_against_summary() == {}
        assert acct.cause_cycles["miss"] == result.frontend.fetch_stall_cycles
        assert acct.summary["cycles"] == result.cycles
        assert acct.summary["instructions"] == result.instructions
