"""Telemetry: event tracing and simulator profiling.

Two independent facilities, bundled by :class:`Telemetry` for handing
to a :class:`~repro.cpu.machine.Machine`:

* **event tracing** (:mod:`repro.telemetry.events`) — typed per-event
  records (stalls with cause, L1-I outcomes, MSHR allocations, predictor
  decisions, DRAM row-buffer activity, FTQ occupancy) exported as JSONL
  or CSV and summarised by
  :class:`~repro.telemetry.accounting.StallAccounting`;
* **profiling** (:mod:`repro.telemetry.profiler`) — host wall-clock time
  per simulation stage plus simulated-cycles-per-second throughput.

The default is :data:`NULL_TELEMETRY` (a null recorder and no profiler):
simulation results are bit-identical with and without it, and hot paths
only pay disabled-flag checks.
"""

from __future__ import annotations

from typing import Optional

from .accounting import StallAccounting
from .events import (
    DRAM_ROW,
    EVENT_KINDS,
    Event,
    EventRecorder,
    EventTrace,
    FTQ,
    L1I,
    MSHR,
    NULL_RECORDER,
    NullRecorder,
    PREDICTOR,
    RUN_SUMMARY,
    STALL,
    STALL_CAUSES,
)
from .exporters import iter_jsonl, read_jsonl, write_csv, write_jsonl
from .profiler import ProfileReport, StageProfiler

__all__ = [
    "DRAM_ROW",
    "EVENT_KINDS",
    "Event",
    "EventRecorder",
    "EventTrace",
    "FTQ",
    "L1I",
    "MSHR",
    "NULL_RECORDER",
    "NULL_TELEMETRY",
    "NullRecorder",
    "PREDICTOR",
    "ProfileReport",
    "RUN_SUMMARY",
    "STALL",
    "STALL_CAUSES",
    "StageProfiler",
    "StallAccounting",
    "Telemetry",
    "iter_jsonl",
    "read_jsonl",
    "write_csv",
    "write_jsonl",
]


class Telemetry:
    """Recorder + optional profiler bundle attached to one machine."""

    __slots__ = ("recorder", "profiler")

    def __init__(self, recorder: Optional[EventRecorder] = None,
                 profiler: Optional[StageProfiler] = None) -> None:
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.profiler = profiler

    @property
    def enabled(self) -> bool:
        return self.recorder.enabled or self.profiler is not None


#: Shared default: no events recorded, no profiling.
NULL_TELEMETRY = Telemetry()
