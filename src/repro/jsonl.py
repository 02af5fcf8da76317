"""Crash-safe JSON-lines files: whole-line appends and a reader that
tolerates only a truncated tail.

Every append is one ``os.write`` of a complete line to a descriptor
opened with ``O_APPEND`` for that append, so any number of processes
may share a file and their records interleave at line granularity. The
only damage a SIGKILL mid-append can leave is a truncated *last* line,
which :func:`read_records` discards with a warning; a malformed line
anywhere else means the file is not this format and raises.

Users: span and heartbeat files (:mod:`repro.obs.spans`,
:mod:`repro.obs.runs`), the DSE search journal
(:mod:`repro.dse.journal`, which appends with ``fsync``) and the service
daemon's jobs journal.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, Dict, List

_log = logging.getLogger(__name__)


def append_record(path, record: Dict[str, Any], fsync: bool = False) -> None:
    """Append ``record`` to ``path`` as one JSON line, creating the file
    and its directory if needed. ``fsync`` makes the line durable before
    returning (a journal that must survive a power loss)."""
    path = Path(path)
    line = json.dumps(record, sort_keys=True) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def read_records(path, what: str = "record") -> List[Dict[str, Any]]:
    """Every record in ``path``; a missing file reads as empty.

    A truncated or malformed **last** line is discarded with a warning.
    A malformed line anywhere else, or a line that is not a JSON object,
    raises ``ValueError`` naming the line (``what`` labels the records in
    both messages, e.g. ``"span"``).
    """
    path = Path(path)
    if not path.exists():
        return []
    raw_lines = path.read_text().split("\n")
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(raw_lines):
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"{what} record is not an object")
        except ValueError as exc:
            if lineno == len(raw_lines) - 1:
                _log.warning("discarding truncated last %s line in %s (%s)",
                             what, path, exc)
                break
            raise ValueError(
                f"{path}: corrupt {what} line {lineno + 1}: {exc}") from exc
        records.append(record)
    return records
