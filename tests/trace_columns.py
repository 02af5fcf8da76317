"""Column helpers for tests that build traces by hand.

A trace is only ever an :class:`~repro.trace.arrays.ArrayTrace`; tests
compare it with the :class:`~repro.trace.record.Instruction` records it
was built from column by column, never by reading instructions back.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.trace.arrays import COLUMNS, ArrayTrace


def columns(trace: ArrayTrace) -> Dict[str, List[int]]:
    """Every instruction column of ``trace`` as a list of ints."""
    return {name: list(getattr(trace, name)) for name, _ in COLUMNS}


def record_columns(records: Iterable) -> Dict[str, List[int]]:
    """The columns that :meth:`ArrayTrace.from_instructions` must pack
    ``records`` into (``taken`` as 1/0, ``kind`` as its int code)."""
    records = list(records)
    return {name: [int(getattr(ins, name)) for ins in records]
            for name, _ in COLUMNS}


def head(trace: ArrayTrace, n: int) -> ArrayTrace:
    """The first ``n`` instructions of ``trace`` as a trace of their own."""
    n = min(n, len(trace))
    return ArrayTrace(tuple(getattr(trace, name)[:n] for name, _ in COLUMNS),
                      n)
