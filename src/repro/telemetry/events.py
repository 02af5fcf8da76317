"""Typed event stream for cycle-level observability.

The simulator emits :class:`Event` records through an
:class:`EventRecorder`. The default recorder is :data:`NULL_RECORDER`,
whose ``emit`` is a no-op and whose ``enabled`` flag lets hot paths skip
event construction entirely — a run with the null recorder is
bit-identical to a run without telemetry and costs only a handful of
attribute checks per cycle.

Event kinds (see ``docs/telemetry.md`` for the field schema):

* ``stall``       — fetch blocked for ``cycles`` cycles with ``cause``
  (``miss`` / ``resteer`` / ``backend``) at fetch address ``pc``.
  Summing ``cycles`` per cause reproduces the
  :class:`~repro.stats.counters.FrontEndStats` stall counters exactly.
* ``l1i``         — an L1-I demand lookup outcome (``result`` is a
  :class:`~repro.memory.icache.MissKind` name); hits are only recorded
  when the recorder sets ``record_hits``.
* ``ftq``         — periodic occupancy sample of the fetch target queue
  and the MSHR file.
* ``mshr``        — an MSHR allocation (``source`` is ``demand`` /
  ``fdip`` / ``nextline``).
* ``predictor``   — usefulness-predictor decisions: ``insert`` (train on
  an arriving block), ``install`` (a victim's accessed run moves into a
  UBS way of ``way_size`` bytes), ``discard`` (victim had no used bytes).
* ``dram_row``    — a DRAM access with row-buffer ``hit`` flag and bank.
* ``run_summary`` — one final event per run carrying the headline
  counters, so a trace file is self-describing.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

# Event kind names (JSONL ``kind`` field values).
STALL = "stall"
L1I = "l1i"
FTQ = "ftq"
MSHR = "mshr"
PREDICTOR = "predictor"
DRAM_ROW = "dram_row"
RUN_SUMMARY = "run_summary"

EVENT_KINDS = frozenset(
    {STALL, L1I, FTQ, MSHR, PREDICTOR, DRAM_ROW, RUN_SUMMARY}
)

#: Stall causes, in report order.
STALL_CAUSES = ("miss", "resteer", "backend")


class Event:
    """One typed simulator event: a kind, a cycle, and free-form fields."""

    __slots__ = ("kind", "cycle", "fields")

    def __init__(self, kind: str, cycle: int, **fields: Any) -> None:
        self.kind = kind
        self.cycle = cycle
        self.fields = fields

    def to_record(self) -> Dict[str, Any]:
        """Flat dict for serialisation (``kind``/``cycle`` + fields)."""
        record = {"kind": self.kind, "cycle": self.cycle}
        record.update(self.fields)
        return record

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "Event":
        data = dict(record)
        kind = data.pop("kind")
        cycle = data.pop("cycle")
        return cls(kind, cycle, **data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.kind == other.kind and self.cycle == other.cycle
                and self.fields == other.fields)

    def __hash__(self) -> int:
        return hash((self.kind, self.cycle, tuple(sorted(self.fields))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"Event({self.kind!r}, cycle={self.cycle}{', ' + inner if inner else ''})"


class EventRecorder:
    """Recorder interface; ``enabled`` gates all emission sites."""

    enabled = False
    #: Whether per-lookup L1-I *hit* events should be emitted (they
    #: dominate trace volume, so they are opt-in even when recording).
    record_hits = False

    def emit(self, kind: str, cycle: int, **fields: Any) -> None:
        raise NotImplementedError


class NullRecorder(EventRecorder):
    """Discards everything; the zero-cost default."""

    def emit(self, kind: str, cycle: int, **fields: Any) -> None:
        pass


#: Shared do-nothing recorder instance used as the default everywhere.
NULL_RECORDER = NullRecorder()


class EventTrace(EventRecorder):
    """In-memory event recorder with an optional size cap.

    When ``limit`` is reached further events are counted in ``dropped``
    rather than stored, so a runaway trace cannot exhaust memory.
    """

    enabled = True

    def __init__(self, limit: Optional[int] = None,
                 record_hits: bool = False) -> None:
        self.events: List[Event] = []
        self.limit = limit
        self.record_hits = record_hits
        self.dropped = 0

    def emit(self, kind: str, cycle: int, **fields: Any) -> None:
        if self.limit is not None and len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(Event(kind, cycle, **fields))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def of_kind(self, kind: str) -> List[Event]:
        return [e for e in self.events if e.kind == kind]

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
