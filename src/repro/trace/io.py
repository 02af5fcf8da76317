"""Binary trace files.

Synthesised workloads are persisted so they can be re-used without
re-running the generator (mirroring how ChampSim consumes pre-packaged
trace files). The one on-disk container is the columnar
:class:`~repro.trace.arrays.ArrayTrace` layout (``b"REPROAT"`` + format
version 2): :func:`write_trace` writes an ``ArrayTrace``, and
:func:`read_trace` returns one whose columns are zero-copy views over
the file bytes.
Older containers (the earlier record-oriented format and ``REPROAT``
files without sidecar columns) are no longer read: :func:`read_trace`
rejects them with a :class:`~repro.errors.TraceError`, and the trace
cache regenerates such files. Files ending in ``.gz`` are transparently
gzip-compressed.

Raw ChampSim trace files carry no magic of their own, so
:func:`read_trace` detects them by extension (``.champsim`` /
``.champsimtrace``, optionally ``.gz``/``.xz``-compressed) and
delegates to :mod:`repro.trace.champsim` — the importer that lets real
traces be named as workloads (``champsim:<path>``) in sweeps.
"""

from __future__ import annotations

import gzip
import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable, Union

from ..errors import TraceError
from .arrays import MAGIC, VERSION, ArrayTrace

PathLike = Union[str, Path]


def _open(path: PathLike, mode: str) -> BinaryIO:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)


def write_trace(path: PathLike, trace: ArrayTrace) -> int:
    """Write a trace to ``path`` in the columnar container; returns the
    number of instructions."""
    with _open(path, "wb") as fh:
        for chunk in trace._chunks():
            fh.write(chunk)
    return len(trace)


def publish(path: PathLike, write: Callable[[str], object]) -> None:
    """Create or replace ``path`` atomically: ``write(tmp)`` fills a
    uniquely named temp file in ``path``'s directory, which is then
    renamed over ``path`` (and deleted if ``write`` raises). Concurrent
    publishers of the same file never expose a partial one; the last
    rename wins."""
    path = Path(path)
    fh = tempfile.NamedTemporaryFile(
        "wb", dir=path.parent, prefix=path.name + ".", suffix=".tmp",
        delete=False)
    fh.close()
    try:
        write(fh.name)
        os.replace(fh.name, path)
    except BaseException:
        os.unlink(fh.name)
        raise


def is_champsim_file(path: PathLike) -> bool:
    """Does ``path`` look like a raw ChampSim trace (by extension)?"""
    name = Path(path).name
    for compression in (".gz", ".xz"):
        if name.endswith(compression):
            name = name[:-len(compression)]
    return name.endswith((".champsim", ".champsimtrace"))


def read_trace(path: PathLike) -> ArrayTrace:
    """Read a trace previously written by :func:`write_trace`, or a raw
    ChampSim trace (detected by extension).

    Returns an :class:`ArrayTrace` either way. Raises
    :class:`~repro.errors.TraceError`, naming ``path``, for anything
    else — including containers older than the current version.
    """
    if is_champsim_file(path):
        from .champsim import read_champsim

        return read_champsim(path)
    with _open(path, "rb") as fh:
        data = fh.read()
    if data[:len(MAGIC)] != MAGIC:
        raise TraceError(
            f"{path}: bad magic {data[:8]!r}: not a version-{VERSION} "
            f"trace container (older record-oriented trace files are "
            f"no longer read)")
    try:
        return ArrayTrace.from_buffer(data)
    except TraceError as exc:
        raise TraceError(f"{path}: {exc}") from None
