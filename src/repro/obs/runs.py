"""Run directories: manifest, spans, heartbeats, final metrics.

One orchestrated run (a ``run_all`` fill, a DSE search) owns one
directory::

    <obs-dir>/
      manifest.json         run_id, kind, argv, config, host, git rev, scale
      spans.jsonl           the span tree (repro.obs.spans)
      heartbeats/           worker-<pid>.jsonl, one line per state change
      metrics.json          written at the end: wall clock and the
                            run's counters (result cache + CLI)

``metrics.json`` doubles as the completion marker: ``tail`` follows a
run until it appears, and ``report`` computes wall-clock coverage from
``manifest.started_unix_nano`` → ``metrics.finished_unix_nano``.

The directory is chosen with ``--obs-dir`` or the ``REPRO_OBS_DIR``
environment variable (:func:`resolve_obs_dir`); when neither is set,
observability is off and every caller's ``obs`` stays ``None``.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional

from .spans import SpanWriter, Tracer

#: Bump on any change to manifest.json / metrics.json layout.
RUN_SCHEMA_VERSION = 1

#: Environment variable equivalent of ``--obs-dir``.
OBS_DIR_ENV = "REPRO_OBS_DIR"


def resolve_obs_dir(cli_value: Optional[str] = None) -> Optional[Path]:
    """The run directory to use: ``--obs-dir`` beats ``REPRO_OBS_DIR``;
    neither means observability is disabled (returns ``None``)."""
    if cli_value:
        return Path(cli_value)
    env = os.environ.get(OBS_DIR_ENV)
    if env:
        return Path(env)
    return None


def git_revision(cwd: Optional[Path] = None) -> str:
    """The current git commit hash, or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def host_info() -> Dict[str, Any]:
    return {
        "hostname": socket.gethostname(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
    }


class Heartbeat:
    """A worker's liveness file: ``heartbeats/worker-<pid>.jsonl``.

    One whole-line append per state change (``run`` when a pair starts,
    ``idle`` when it completes), so ``tail`` can show what every worker
    is doing *right now* and a post-mortem shows what it was doing when
    the run died.
    """

    def __init__(self, obs_dir, pid: Optional[int] = None) -> None:
        self.pid = pid if pid is not None else os.getpid()
        self._writer = SpanWriter(
            Path(obs_dir) / "heartbeats" / f"worker-{self.pid}.jsonl")
        self.done = 0

    def beat(self, state: str, **fields: Any) -> None:
        record = {"time_unix_nano": time.time_ns(), "pid": self.pid,
                  "state": state, "done": self.done}
        record.update(fields)
        self._writer.write(record)


def read_heartbeats(obs_dir) -> Dict[int, List[Dict[str, Any]]]:
    """All heartbeat records per worker pid (crash-tolerant reads)."""
    from .spans import read_spans

    out: Dict[int, List[Dict[str, Any]]] = {}
    hb_dir = Path(obs_dir) / "heartbeats"
    if not hb_dir.is_dir():
        return out
    for path in sorted(hb_dir.glob("worker-*.jsonl")):
        records = read_spans(path)
        if records:
            out[int(records[0].get("pid", 0))] = records
    return out


class ObsRun:
    """One run directory's writer side (see the module docstring)."""

    def __init__(self, obs_dir, kind: str,
                 argv: Optional[List[str]] = None,
                 config: Optional[Dict[str, Any]] = None) -> None:
        self.dir = Path(obs_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "heartbeats").mkdir(exist_ok=True)
        self.run_id = uuid.uuid4().hex
        self.kind = kind
        self.started_unix_nano = time.time_ns()
        self.tracer = Tracer(SpanWriter(self.dir / "spans.jsonl"))
        from ..trace.workloads import scale_factor

        self.manifest: Dict[str, Any] = {
            "schema_version": RUN_SCHEMA_VERSION,
            "run_id": self.run_id,
            "kind": kind,
            "trace_id": self.tracer.trace_id,
            "argv": list(argv if argv is not None else sys.argv),
            "config": dict(config or {}),
            "host": host_info(),
            "git_rev": git_revision(),
            "scale": scale_factor(),
            "started_unix_nano": self.started_unix_nano,
        }
        self._write_json("manifest.json", self.manifest)
        self._root_cm = self.tracer.span(kind, run_id=self.run_id)
        self._root_cm.__enter__()
        self._finished = False

    def _write_json(self, name: str, payload: Dict[str, Any]) -> None:
        path = self.dir / name
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)

    def finish(self, metrics: Optional[Dict[str, Any]] = None,
               status: str = "OK") -> None:
        """Close the root span and write the final ``metrics.json``
        (idempotent; the second call is a no-op)."""
        if self._finished:
            return
        self._finished = True
        if status == "OK":
            self._root_cm.__exit__(None, None, None)
        else:
            # Throw into the span context manager so the root span is
            # written with status ERROR; __exit__ swallows the same
            # exception instance it was handed (returns False).
            exc = RuntimeError(status)
            self._root_cm.__exit__(RuntimeError, exc, None)
        finished = time.time_ns()
        self._write_json("metrics.json", {
            "schema_version": RUN_SCHEMA_VERSION,
            "run_id": self.run_id,
            "status": status,
            "finished_unix_nano": finished,
            "wall_seconds": (finished - self.started_unix_nano) / 1e9,
            "metrics": dict(metrics or {}),
        })

    # -- reader side --------------------------------------------------------

    @staticmethod
    def load_manifest(obs_dir) -> Dict[str, Any]:
        return json.loads((Path(obs_dir) / "manifest.json").read_text())

    @staticmethod
    def load_metrics(obs_dir) -> Optional[Dict[str, Any]]:
        """The final snapshot, or ``None`` while the run is live (or if
        it died before finishing)."""
        path = Path(obs_dir) / "metrics.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())
