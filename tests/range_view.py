"""A per-range view of the columnar range stream, for tests.

The simulator keeps a trace's fetch ranges only as the typed columns of
:class:`repro.frontend.ftq.RangeStream`; tests that want to look at one
range at a time zip the columns into :class:`RangeRow` tuples here.
"""

from __future__ import annotations

from typing import List, NamedTuple


class RangeRow(NamedTuple):
    """One fetch range: the ``RangeStream`` columns at one index."""

    start: int
    nbytes: int
    first_index: int
    n_instrs: int
    resteer: int
    cond_lookups: int
    mispredicts: int

    @property
    def end(self) -> int:
        return self.start + self.nbytes


def range_rows(stream) -> List[RangeRow]:
    """Every range of ``stream`` in emission order."""
    columns = [getattr(stream, name) for name in RangeRow._fields]
    return [RangeRow(*row) for row in zip(*columns)]
