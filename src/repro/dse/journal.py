"""Crash-safe JSONL journal for design-space searches.

A search that dies — SIGKILL, OOM, a pulled plug — must resume without
re-simulating finished points. The journal is the durable record: one
header line describing the search, then one line per completed
evaluation. Appends are :mod:`repro.jsonl` whole-line writes followed by
an ``fsync``, so the only possible damage from a crash is a truncated
*last* line, which :meth:`SearchJournal.read` discards with a warning
(mirroring ``ResultCache.load``'s corrupt-entry handling). Records carry
only deterministic simulation-derived fields, so journals written at
different ``--jobs`` levels are identical modulo completion order.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..errors import JournalError
from ..jsonl import append_record, read_records

#: Bump on any change to the header or eval record layout.
SCHEMA_VERSION = 1

_log = logging.getLogger(__name__)


class SearchJournal:
    """Append-only JSONL journal of one search's completed evaluations."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    # -- reading ------------------------------------------------------------

    def read(self) -> Tuple[Optional[dict], Dict[str, dict]]:
        """Load ``(header, evals)``; ``evals`` maps point key -> record.

        Tolerates exactly the damage a crash can cause: a truncated or
        malformed **last** line is discarded with a warning. A malformed
        line anywhere else, a missing header, a wrong ``schema_version``
        or a record without a key means the file is not this format (or a
        future one) and raises :class:`JournalError` — resuming over it
        could silently mix incompatible results. Duplicate keys keep the
        first record (later ones are re-runs of already-journaled work).
        """
        try:
            records = read_records(self.path, "journal")
        except ValueError as exc:
            raise JournalError(str(exc)) from exc
        if not records:
            return None, {}
        header = records[0]
        if header.get("kind") != "header":
            raise JournalError(
                f"{self.path}: first line is not a journal header"
            )
        version = header.get("schema_version")
        if version != SCHEMA_VERSION:
            raise JournalError(
                f"{self.path}: journal schema_version {version!r} is not "
                f"{SCHEMA_VERSION}; refusing to resume"
            )
        evals: Dict[str, dict] = {}
        for record in records[1:]:
            if record.get("kind") != "eval":
                raise JournalError(
                    f"{self.path}: unexpected record kind "
                    f"{record.get('kind')!r}"
                )
            key = record.get("key")
            if not isinstance(key, str):
                raise JournalError(f"{self.path}: eval record without a key")
            if key in evals:
                _log.warning("skipping duplicate journal entry for %s", key)
                continue
            evals[key] = record
        return header, evals

    # -- writing ------------------------------------------------------------

    def _append(self, record: dict) -> None:
        append_record(self.path, record, fsync=True)

    def ensure_header(self, meta: dict) -> Dict[str, dict]:
        """Start or resume: write the header if the journal is new,
        verify it matches ``meta`` if not, and return the completed
        evaluations.

        ``meta`` must hold everything that makes results comparable
        (strategy, seed, scale, workloads, space bounds…); any
        disagreement with an existing header raises :class:`JournalError`
        rather than blending two different searches into one file.
        """
        header, evals = self.read()
        if header is None:
            record = {"kind": "header", "schema_version": SCHEMA_VERSION}
            record.update(meta)
            self._append(record)
            return {}
        stale = {
            key: (header.get(key), value)
            for key, value in meta.items()
            if header.get(key) != value
        }
        if stale:
            detail = "; ".join(
                f"{key}: journal has {old!r}, search wants {new!r}"
                for key, (old, new) in sorted(stale.items())
            )
            raise JournalError(
                f"{self.path}: journal belongs to a different search "
                f"({detail})"
            )
        return evals

    def append_eval(self, key: str, point: dict, metrics: dict,
                    per_workload: dict) -> None:
        """Durably record one completed evaluation."""
        self._append({
            "kind": "eval",
            "key": key,
            "point": point,
            "metrics": metrics,
            "per_workload": per_workload,
        })
