"""Hierarchical span tracing with cross-process context propagation.

A *span* is one timed operation: a name, a ``trace_id`` shared by every
span of one run, its own ``span_id``, its parent's ``span_id`` (``None``
for the root), wall-clock start/end in Unix nanoseconds, a status and a
flat attribute dict — the OpenTelemetry shape, one JSON object per line.

Durability is :mod:`repro.jsonl`'s: each finished span is appended as
one whole-line ``write`` to an ``O_APPEND`` descriptor, so concurrent
writers (pool workers appending to the same ``spans.jsonl``) interleave
at line granularity and the only damage a SIGKILL can cause is a
truncated *last* line, which :func:`read_spans` discards with a
warning. Spans are written on *end*; a span in flight when the process
dies is simply absent (its children may be present — the report CLI
renders such orphans under a synthetic root).

Cross-process propagation: :meth:`Tracer.carrier` captures the current
``(trace_id, span_id, spans path)`` as a plain dict that travels through
``ProcessPoolExecutor.submit`` arguments; :meth:`Tracer.from_carrier`
rebuilds a tracer in the worker whose spans parent to the host's active
span, so host and workers emit one connected tree.
"""

from __future__ import annotations

import os
import secrets
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from ..jsonl import append_record, read_records

#: Bump on any change to the span record layout.
SPAN_SCHEMA_VERSION = 1


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 lowercase hex chars)."""
    return secrets.token_hex(16)


def new_span_id() -> str:
    """A fresh 64-bit span id (16 lowercase hex chars)."""
    return secrets.token_hex(8)


class SpanWriter:
    """Appends finished spans to a JSONL file, one whole line per span.

    The descriptor is opened per append (``O_APPEND``), so any number of
    processes may share one file; a write is a single ``os.write`` of a
    complete line. Spans are orchestration-granular (pairs, sweeps,
    generations — not cycles), so the open-per-append cost is noise.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    def write(self, record: Dict[str, Any]) -> None:
        append_record(self.path, record)


def read_spans(path) -> List[Dict[str, Any]]:
    """Every span record in ``path``, tolerating exactly crash damage.

    A truncated or malformed **last** line is discarded with a warning
    (the one thing a SIGKILL mid-append can produce); a malformed line
    anywhere else raises ``ValueError`` — the file is not this format.
    A missing file reads as an empty list (the run died before its first
    span ended).
    """
    return read_records(path, "span")


class Tracer:
    """Emits spans for one process; nesting via a span stack.

    The host process creates the root tracer
    (``Tracer(writer)`` — fresh ``trace_id``); worker processes rebuild
    theirs from a :meth:`carrier` dict so their spans join the same tree.
    Tracers are process-local and single-threaded by design (the sweep
    host and each worker are), so a plain stack is enough context.
    """

    def __init__(self, writer: SpanWriter, trace_id: Optional[str] = None,
                 parent_span_id: Optional[str] = None) -> None:
        self.writer = writer
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self._stack: List[str] = []
        self._base_parent = parent_span_id

    @property
    def current_span_id(self) -> Optional[str]:
        """The active span's id (the parent of whatever starts next)."""
        if self._stack:
            return self._stack[-1]
        return self._base_parent

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[str]:
        """Time a block as one span; yields the new span's id.

        The span is written when the block exits; an exception marks
        ``status: "ERROR"`` (and propagates).
        """
        span_id = new_span_id()
        parent = self.current_span_id
        self._stack.append(span_id)
        start = time.time_ns()
        status = "OK"
        try:
            yield span_id
        except BaseException:
            status = "ERROR"
            raise
        finally:
            self._stack.pop()
            self.writer.write({
                "name": name,
                "trace_id": self.trace_id,
                "span_id": span_id,
                "parent_span_id": parent,
                "start_time_unix_nano": start,
                "end_time_unix_nano": time.time_ns(),
                "status": status,
                "pid": os.getpid(),
                "attributes": attributes,
            })

    def record_span(self, name: str, start_ns: int, end_ns: int,
                    parent_span_id: Optional[str] = None,
                    status: str = "OK", **attributes: Any) -> str:
        """Write an already-timed span (no stack involvement).

        Used where the span's boundaries were observed as events rather
        than as a ``with`` block — e.g. the host recording a pair it
        dispatched inline from submit/done callbacks. ``parent_span_id``
        defaults to the currently active span.
        """
        span_id = new_span_id()
        if parent_span_id is None:
            parent_span_id = self.current_span_id
        self.writer.write({
            "name": name,
            "trace_id": self.trace_id,
            "span_id": span_id,
            "parent_span_id": parent_span_id,
            "start_time_unix_nano": start_ns,
            "end_time_unix_nano": end_ns,
            "status": status,
            "pid": os.getpid(),
            "attributes": attributes,
        })
        return span_id

    # -- cross-process propagation ------------------------------------------

    def carrier(self) -> Dict[str, str]:
        """Serialisable context: give this to a worker so its spans
        parent to the span active *now*."""
        ctx = {"trace_id": self.trace_id,
               "spans_path": str(self.writer.path)}
        current = self.current_span_id
        if current is not None:
            ctx["span_id"] = current
        return ctx

    @classmethod
    def from_carrier(cls, carrier: Dict[str, str]) -> "Tracer":
        """Rebuild a tracer (typically in a pool worker) from
        :meth:`carrier` output."""
        return cls(SpanWriter(carrier["spans_path"]),
                   trace_id=carrier["trace_id"],
                   parent_span_id=carrier.get("span_id"))
