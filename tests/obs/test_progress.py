"""Live progress renderer: non-TTY log lines, TTY redraw, ETA model."""

import io

from repro.obs.progress import SweepProgress, format_eta, progress_bar

PAIRS = [("w1", "conv32"), ("w2", "ubs")]


class TestFormatting:
    def test_format_eta(self):
        assert format_eta(47) == "47s"
        assert format_eta(192) == "3m12s"
        assert format_eta(3840) == "1h04m"
        assert format_eta(-3) == "0s"

    def test_progress_bar(self):
        assert progress_bar(0, 4, width=4) == "----"
        assert progress_bar(2, 4, width=4) == "##--"
        assert progress_bar(4, 4, width=4) == "####"
        assert progress_bar(0, 0, width=4) == "####"    # nothing to do


class TestNonTty:
    def _progress(self):
        stream = io.StringIO()
        return SweepProgress(stream=stream, tty=False), stream

    def test_plain_line_per_pair(self):
        progress, stream = self._progress()
        progress.sweep_started(PAIRS, 5, {p: 1.0 for p in PAIRS}, jobs=2)
        progress.pair_started(*PAIRS[0])
        progress.pair_done(*PAIRS[0], wall_seconds=0.5)
        progress.close()
        lines = stream.getvalue().splitlines()
        assert lines[0] == "5 pairs (3 cached, 2 to simulate, 2 jobs)"
        assert lines[1].startswith("[1/2] w1 conv32 (")
        # Plain mode never emits control characters.
        assert "\r" not in stream.getvalue()
        assert "\x1b" not in stream.getvalue()

    def test_counts_progress(self):
        progress, _ = self._progress()
        progress.sweep_started(PAIRS, 2, {}, jobs=1)
        for pair in PAIRS:
            progress.pair_started(*pair)
            progress.pair_done(*pair)
        assert progress.done == 2


class TestTty:
    def test_redraws_in_place(self):
        stream = io.StringIO()
        progress = SweepProgress(stream=stream, tty=True)
        progress.sweep_started(PAIRS, 2, {p: 1.0 for p in PAIRS}, jobs=1)
        progress._last_draw = 0.0    # defeat throttling for the test
        progress.pair_started(*PAIRS[0])
        out = stream.getvalue()
        assert "\r\x1b[K" in out
        assert "0/2" in out
        assert "w1::conv32" in out
        progress.close()
        assert stream.getvalue().endswith("\n")

    def test_inflight_overflow_summarised(self):
        stream = io.StringIO()
        progress = SweepProgress(stream=stream, tty=True)
        pairs = [(f"w{i}", "conv32") for i in range(4)]
        progress.sweep_started(pairs, 4, {}, jobs=4)
        for pair in pairs:
            progress._inflight[pair] = 0.0
        line = progress.status_line()
        assert "+2" in line


class TestEta:
    def test_uses_sidecar_costs(self):
        progress = SweepProgress(stream=io.StringIO(), tty=False)
        costs = {("w1", "c"): 10.0, ("w2", "c"): 30.0}
        progress.sweep_started(list(costs), 2, costs, jobs=2)
        # Nothing done yet: the whole cost, split over 2 jobs.
        assert progress.eta_seconds() == (10.0 + 30.0) / 2

    def test_calibrates_to_measured_pace(self):
        progress = SweepProgress(stream=io.StringIO(), tty=False)
        costs = {("w1", "c"): 10.0, ("w2", "c"): 30.0}
        progress.sweep_started(list(costs), 2, costs, jobs=1)
        # The pair cost 10 units and this host took 20s: 2s per unit, so
        # the remaining 30 units read as 60s.
        progress.pair_started("w1", "c")
        progress.pair_done("w1", "c", wall_seconds=20.0)
        assert progress.eta_seconds() == 60.0
