"""Fleet-level run observability.

Everything *around* the simulator — the sweep engine's process pool and
the DSE search loop — is orchestration, and orchestration that cannot be
observed cannot be debugged. :mod:`repro.obs` makes every
orchestrated run a first-class queryable artifact:

* **span tracing** (:mod:`repro.obs.spans`) — hierarchical
  ``trace_id``/``span_id``/``parent_span_id`` spans, OpenTelemetry-shaped
  one-line-JSON records appended crash-safely to ``spans.jsonl``, with a
  serialisable *carrier* that propagates the trace context across the
  sweep engine's process-pool boundary;
* **run directories** (:mod:`repro.obs.runs`) — one directory per
  orchestrated run (``--obs-dir`` / ``REPRO_OBS_DIR``) holding
  ``manifest.json`` (run id, argv, host, git rev, scale),
  ``spans.jsonl``, per-worker heartbeat files and a final
  ``metrics.json`` snapshot;
* **engine hooks** (:mod:`repro.obs.hooks`) — the duck-typed observer a
  :class:`~repro.experiments.pool.SweepEngine` (and
  :func:`~repro.dse.search.run_search`) calls at pair/generation
  boundaries, bundling the tracer, the live progress renderer and the
  result-cache counters;
* **live progress** (:mod:`repro.obs.progress`) — a TTY renderer with
  done/total, in-flight pairs, cache hit/miss counts and an ETA from the
  engine's per-pair cost model, calibrated by the pairs already done;
* **a CLI** (``python -m repro.obs``) — ``report`` reconstructs the span
  tree with critical-path and self-time rollups, ``tail`` follows a live
  run.

Every hook is behind an ``obs is not None`` guard and nothing here runs
per simulated cycle, so runs without ``--obs-dir`` pay nothing.
"""

from __future__ import annotations

from .hooks import ProgressObs, RunObs
from .progress import SweepProgress
from .runs import ObsRun, resolve_obs_dir
from .spans import (
    SpanWriter,
    Tracer,
    new_span_id,
    new_trace_id,
    read_spans,
)

__all__ = [
    "ObsRun",
    "ProgressObs",
    "RunObs",
    "SweepProgress",
    "SpanWriter",
    "Tracer",
    "new_span_id",
    "new_trace_id",
    "read_spans",
    "resolve_obs_dir",
]
