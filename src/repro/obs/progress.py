"""Live sweep progress for a terminal.

On a TTY the renderer redraws one status line in place (``\\r`` +
erase-to-end), showing done/total with a bar, the in-flight pairs, cache
hit/miss counts and an ETA; off a TTY (CI logs, pipes) it degrades to
one plain line per completed pair — exactly the log shape ``run_all``
always printed, so existing log-scraping keeps working.

The ETA comes from the cost model the sweep engine schedules by
(:func:`repro.experiments.pool.expected_cost`, one cost for every pair
it will simulate): remaining cost divided by the worker count, times a
calibration factor — the measured wall seconds of completed pairs over
their cost. Before the first pair finishes the factor is 1, so the ETA
reads in cost units; from then on it is in this host's seconds.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Dict, List, Optional, TextIO, Tuple

Pair = Tuple[str, str]

#: Minimum seconds between TTY redraws (events can arrive much faster).
REDRAW_INTERVAL = 0.1


def format_eta(seconds: float) -> str:
    """Compact human ETA: ``47s``, ``3m12s``, ``1h04m``."""
    seconds = max(0, int(round(seconds)))
    if seconds < 60:
        return f"{seconds}s"
    if seconds < 3600:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"


def progress_bar(done: int, total: int, width: int = 16) -> str:
    filled = int(width * done / total) if total else width
    return "#" * filled + "-" * (width - filled)


class SweepProgress:
    """Renders one sweep's live state; fed by the engine's obs hooks."""

    def __init__(self, stream: Optional[TextIO] = None,
                 tty: Optional[bool] = None) -> None:
        self.stream = stream if stream is not None else sys.stdout
        if tty is None:
            tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self.tty = tty
        self.total = 0
        self.done = 0
        self.cache_hits = 0
        self.jobs = 1
        self._costs: Dict[Pair, float] = {}
        self._inflight: "Dict[Pair, float]" = {}   # pair -> start time
        self._started = perf_counter()
        self._expected_done = 0.0
        self._remaining = 0.0         # cost of unfinished pairs
        self._wall_done = 0.0
        self._last_draw = 0.0
        self._line_open = False

    # -- engine-facing hooks -------------------------------------------------

    def sweep_started(self, todo: List[Pair], total_pairs: int,
                      costs: Dict[Pair, float], jobs: int) -> None:
        self.total = len(todo)
        self.cache_hits = total_pairs - len(todo)
        self.jobs = max(1, jobs)
        self._costs = dict(costs)
        self._remaining = sum(costs.get(pair, 0.0) for pair in todo)
        self._started = perf_counter()
        if self.tty:
            self._draw(force=True)
        else:
            self.stream.write(
                f"{total_pairs} pairs ({self.cache_hits} cached, "
                f"{len(todo)} to simulate, {self.jobs} "
                f"job{'s' if self.jobs > 1 else ''})\n")
            self.stream.flush()

    def pair_started(self, workload: str, config: str) -> None:
        self._inflight[(workload, config)] = perf_counter()
        if self.tty:
            self._draw()

    def pair_done(self, workload: str, config: str,
                  wall_seconds: float = 0.0) -> None:
        pair = (workload, config)
        started = self._inflight.pop(pair, None)
        self.done += 1
        cost = self._costs.get(pair)
        if cost is not None:
            self._expected_done += cost
            self._remaining -= cost
        if wall_seconds:
            self._wall_done += wall_seconds
        elif started is not None:
            self._wall_done += perf_counter() - started
        if self.tty:
            self._draw()
        else:
            elapsed = perf_counter() - self._started
            eta = self.eta_seconds()
            self.stream.write(
                f"[{self.done}/{self.total}] {workload} {config} "
                f"({elapsed:.0f}s elapsed, ~{format_eta(eta)} left)\n")
            self.stream.flush()

    def close(self) -> None:
        """End the in-place line so following prints start clean."""
        if self.tty and self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False

    # -- estimation ----------------------------------------------------------

    def eta_seconds(self) -> float:
        # Calibrate the cost model against this host's measured pace.
        calibration = 1.0
        if self._expected_done > 0 and self._wall_done > 0:
            calibration = self._wall_done / self._expected_done
        return max(0.0, self._remaining) * calibration / self.jobs

    # -- drawing -------------------------------------------------------------

    def status_line(self) -> str:
        running = sorted(self._inflight)
        shown = ", ".join(f"{w}::{c}" for w, c in running[:2])
        if len(running) > 2:
            shown += f" +{len(running) - 2}"
        parts = [
            f"[{progress_bar(self.done, self.total)}]",
            f"{self.done}/{self.total}",
            f"cache {self.cache_hits} hit",
            f"ETA {format_eta(self.eta_seconds())}",
        ]
        if shown:
            parts.append(shown)
        return "  ".join(parts)

    def _draw(self, force: bool = False) -> None:
        now = perf_counter()
        if not force and now - self._last_draw < REDRAW_INTERVAL:
            return
        self._last_draw = now
        self.stream.write("\r\x1b[K" + self.status_line())
        self.stream.flush()
        self._line_open = True
