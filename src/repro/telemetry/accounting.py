"""Stall accounting: turn an event trace into a cycle-level breakdown.

:class:`StallAccounting` consumes ``stall`` events (and the trailing
``run_summary`` events when present) and answers the questions the paper's
front-end analysis asks: how many cycles went to each stall cause, how
long individual stalls were (interval histogram, bucketed by powers of
two), and which fetch addresses stalled the most (top-N PCs). Per-cause
cycle totals reproduce the run's
:class:`~repro.stats.counters.FrontEndStats` counters exactly:
``miss`` == ``fetch_stall_cycles`` and ``resteer`` ==
``mispredict_stall_cycles``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .events import Event, RUN_SUMMARY, STALL, STALL_CAUSES


def _bucket(cycles: int) -> int:
    """Histogram bucket index: floor(log2(cycles)), clamped at 0."""
    return max(0, cycles.bit_length() - 1)


class StallAccounting:
    """Aggregates ``stall`` events into a per-cause cycle breakdown."""

    def __init__(self) -> None:
        self.cause_cycles: Dict[str, int] = {c: 0 for c in STALL_CAUSES}
        self.cause_events: Dict[str, int] = {c: 0 for c in STALL_CAUSES}
        # Per-cause histogram of stall lengths: bucket index -> count,
        # where bucket b holds stalls of 2^b .. 2^(b+1)-1 cycles.
        self._hist: Dict[str, Dict[int, int]] = {
            c: defaultdict(int) for c in STALL_CAUSES
        }
        self._pc_cycles: Dict[int, int] = defaultdict(int)
        self._pc_cause: Dict[int, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.summary: Optional[Dict[str, Any]] = None
        self.events_seen = 0

    # -- ingestion ---------------------------------------------------------------

    def add(self, event: Event) -> None:
        """Consume one event; non-stall kinds other than the run summary
        are ignored, so a full mixed trace can be streamed through."""
        self.events_seen += 1
        if event.kind == RUN_SUMMARY:
            summary = dict(event.fields)
            prior = self.summary
            if prior is not None:
                # A co-run ends with one summary per hardware thread, as
                # its SimResult does: counters sum over the threads and
                # the run spans the longest one.
                for key in ("instructions", "fetch_stall_cycles",
                            "mispredict_stall_cycles"):
                    summary[key] = int(prior.get(key, 0)) \
                        + int(summary.get(key, 0))
                summary["cycles"] = max(int(prior.get("cycles", 0)),
                                        int(summary.get("cycles", 0)))
            self.summary = summary
            return
        if event.kind != STALL:
            return
        fields = event.fields
        cause = fields.get("cause", "unknown")
        cycles = int(fields.get("cycles", 0))
        if cause not in self.cause_cycles:
            self.cause_cycles[cause] = 0
            self.cause_events[cause] = 0
            self._hist[cause] = defaultdict(int)
        self.cause_cycles[cause] += cycles
        self.cause_events[cause] += 1
        if cycles > 0:
            self._hist[cause][_bucket(cycles)] += 1
        pc = fields.get("pc")
        if pc is not None:
            self._pc_cycles[pc] += cycles
            self._pc_cause[pc][cause] += cycles

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "StallAccounting":
        acct = cls()
        for event in events:
            acct.add(event)
        return acct

    @classmethod
    def from_jsonl(cls, path) -> "StallAccounting":
        from .exporters import iter_jsonl
        return cls.from_events(iter_jsonl(path))

    # -- queries -----------------------------------------------------------------

    @property
    def total_stall_cycles(self) -> int:
        return sum(self.cause_cycles.values())

    def interval_histogram(self, cause: str) -> Dict[int, int]:
        """``{bucket_floor_cycles: count}`` of stall lengths for a cause."""
        hist = self._hist.get(cause, {})
        return {1 << b: n for b, n in sorted(hist.items())}

    def top_pcs(self, n: int = 10) -> List[Tuple[int, int]]:
        """The ``n`` fetch addresses with the most stall cycles."""
        ranked = sorted(self._pc_cycles.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def validate_against_summary(self) -> Dict[str, Tuple[int, int]]:
        """Compare per-cause totals with the trace's ``run_summary``.

        Returns ``{counter: (from_events, from_summary)}`` for every
        mismatching counter — empty means the trace is consistent.
        """
        if self.summary is None:
            return {}
        expected = {
            "miss": int(self.summary.get("fetch_stall_cycles", 0)),
            "resteer": int(self.summary.get("mispredict_stall_cycles", 0)),
        }
        mismatches = {}
        for cause, want in expected.items():
            have = self.cause_cycles.get(cause, 0)
            if have != want:
                mismatches[cause] = (have, want)
        return mismatches

    # -- report ------------------------------------------------------------------

    def format(self, top_n: int = 10) -> str:
        """Human-readable stall breakdown."""
        lines: List[str] = []
        total_cycles = None
        if self.summary is not None:
            total_cycles = self.summary.get("cycles")
            lines.append(
                f"run: workload={self.summary.get('workload', '?')} "
                f"config={self.summary.get('config', '?')} "
                f"cycles={total_cycles} "
                f"instructions={self.summary.get('instructions', '?')}"
            )
        lines.append("stall cycles by cause:")
        causes = list(STALL_CAUSES) + sorted(
            c for c in self.cause_cycles if c not in STALL_CAUSES)
        for cause in causes:
            cycles = self.cause_cycles.get(cause, 0)
            events = self.cause_events.get(cause, 0)
            line = f"  {cause:10s} {cycles:12d} cycles  {events:8d} stalls"
            if total_cycles:
                line += f"  ({cycles / total_cycles:6.1%} of run)"
            lines.append(line)
        lines.append(f"  {'total':10s} {self.total_stall_cycles:12d} cycles")

        for cause in causes:
            hist = self.interval_histogram(cause)
            if not hist:
                continue
            spans = "  ".join(f"{floor}+:{count}"
                              for floor, count in hist.items())
            lines.append(f"stall-length histogram [{cause}]: {spans}")

        top = self.top_pcs(top_n)
        if top:
            lines.append(f"top {len(top)} stalling fetch addresses:")
            for pc, cycles in top:
                causes_str = ", ".join(
                    f"{c}={n}" for c, n in sorted(
                        self._pc_cause[pc].items(), key=lambda kv: -kv[1]))
                lines.append(f"  {pc:#012x}  {cycles:10d} cycles  ({causes_str})")

        mismatches = self.validate_against_summary()
        if self.summary is not None:
            if mismatches:
                lines.append("WARNING: event totals disagree with run summary:")
                for cause, (have, want) in sorted(mismatches.items()):
                    lines.append(
                        f"  {cause}: events={have} summary={want}")
            else:
                lines.append("event totals match run summary counters")
        return "\n".join(lines)
