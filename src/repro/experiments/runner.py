"""Cached simulation runner shared by every benchmark.

``run_pair(workload, config)`` simulates one workload against one L1-I
configuration and caches the :class:`~repro.stats.counters.SimResult` as
JSON under ``.repro_cache/results/``. The cache key includes a model
version stamp — bump :data:`RESULTS_VERSION` whenever simulator semantics
change.

Generated traces are cached too (``.repro_cache/traces/``), because trace
synthesis is a visible fraction of each run. A synthesised workload's
``.atrace`` file is named by a digest of its spec, its length and
:data:`~repro.trace.synthesis.SYNTHESIS_FORMAT`, so a changed spec
generates a new trace instead of reading a stale one. Beside each
``.atrace`` sit its precompute sidecars: the range stream, delivery
chunks and op tables every machine on the trace builds first, persisted
by the first process that builds them and loaded by every later one
(:mod:`repro.cpu.precompute`).

Baseline ``conv32`` runs always collect the motivation-analysis extras
(byte-usage histogram with end-of-run resident flush, Fig. 4 touch
distances), so the analysis figures reuse the same simulations as the
performance figures.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
from dataclasses import asdict
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional, Union

from ..cpu.machine import build_machine
from ..cpu.precompute import SIDECARS, Sidecars
from ..errors import TraceError
from ..memory.icache import ConventionalICache
from ..stats.counters import SimResult
from ..trace.arrays import ArrayTrace
from ..trace.io import publish, read_trace, write_trace
from ..trace.synthesis import SYNTHESIS_FORMAT
from ..trace.workloads import (SMTWorkload, Workload, get_workload,
                               is_imported_workload, is_smt_workload,
                               scale_factor)

#: Bump when any change alters simulation results.
RESULTS_VERSION = 9

_log = logging.getLogger(__name__)


def _default_cache_dir() -> Path:
    """Resolve ``REPRO_CACHE_DIR`` at construction time, not import time,
    so tests and scripts can redirect the cache after importing us."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


class ResultCache:
    """Disk cache of simulation results and generated traces.

    Every instance counts its own behaviour in :attr:`counters` —
    ``hits``/``misses`` partition :meth:`load` calls, ``stores`` counts
    :meth:`store` calls, and ``corrupt_evicted`` counts the subset of
    misses that deleted a damaged entry. The sweep engine merges its
    workers' per-pair deltas back into the host cache's counters, so
    after a fill they describe the whole run; :meth:`metrics` names
    them for a run's ``metrics.json``.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root else _default_cache_dir()
        (self.root / "results").mkdir(parents=True, exist_ok=True)
        (self.root / "traces").mkdir(parents=True, exist_ok=True)
        self.counters: Dict[str, int] = {
            "hits": 0, "misses": 0, "stores": 0, "corrupt_evicted": 0,
        }

    def metrics(self, prefix: str = "result_cache") -> Dict[str, int]:
        """The counters under ``prefix`` (``result_cache.hits``,
        ``.misses``, ``.stores``, ``.corrupt_evicted``)."""
        return {f"{prefix}.{name}": count
                for name, count in self.counters.items()}

    def counters_line(self) -> str:
        """One-line human summary, used by ``run_all``'s exit line."""
        c = self.counters
        return (f"cache {c['hits']} hits / {c['misses']} misses / "
                f"{c['stores']} stored / {c['corrupt_evicted']} "
                f"corrupt-evicted")

    @staticmethod
    def _safe_name(name: str) -> str:
        """``name`` as a filename component. Suite workload names pass
        through untouched (existing caches stay valid); imported names
        (``champsim:/path/to/trace``) carry separators, so those become
        a slug plus a short content hash to stay collision-free."""
        if re.fullmatch(r"[\w.+=-]+", name):
            return name
        digest = hashlib.blake2s(name.encode()).hexdigest()[:10]
        slug = re.sub(r"[^\w.+=-]+", "_", name)[-40:]
        return f"{slug}__{digest}"

    def _result_path(self, workload: str, config: str) -> Path:
        scale = scale_factor()
        key = (f"{self._safe_name(workload)}__{config}"
               f"__v{RESULTS_VERSION}__s{scale:g}.json")
        return self.root / "results" / key

    def _trace_path(self, workload: Union[str, Workload]) -> Path:
        """The ``.atrace`` file of ``workload`` (a name or a workload).

        A synthesised workload's file is named by a short digest of its
        :class:`~repro.trace.synthesis.SynthesisSpec`, its instruction
        count and :data:`~repro.trace.synthesis.SYNTHESIS_FORMAT`, so a
        changed spec or generator misses instead of reading a stale
        trace. An imported (``champsim:``) trace is named by its path
        alone. The file is an uncompressed columnar container: a read is
        one buffer pull whose columns load zero-copy (the sweep engine's
        pool workers read their traces from exactly these files)."""
        name = workload if isinstance(workload, str) else workload.name
        scale = scale_factor()
        stem = f"{self._safe_name(name)}__s{scale:g}"
        if not is_imported_workload(name):
            if isinstance(workload, str):
                workload = get_workload(name)
            key = json.dumps([asdict(workload.spec), sum(workload.windows()),
                              SYNTHESIS_FORMAT], sort_keys=True)
            stem += "__" + hashlib.blake2s(key.encode()).hexdigest()[:10]
        return self.root / "traces" / f"{stem}.atrace"

    def _estimates_path(self) -> Path:
        scale = scale_factor()
        return self.root / f"estimates__s{scale:g}.json"

    def has(self, workload: str, config: str) -> bool:
        """Whether a cached entry for the pair exists, without reading
        (or counting) it — a cheap peek for callers that only need to
        know what is cold, e.g. the service client deciding whether a
        remote sweep will simulate anything. A present-but-corrupt
        entry reads as cached; the eventual :meth:`load` evicts it."""
        return self._result_path(workload, config).exists()

    def load(self, workload: str, config: str,
             count: bool = True) -> Optional[SimResult]:
        """Load one cached pair. ``count=False`` keeps the lookup out of
        the hit/miss counters — used by the pool worker's single-flight
        re-check, whose miss the host's scan pass already counted (so a
        parallel fill reports the same totals as a serial one)."""
        path = self._result_path(workload, config)
        if not path.exists():
            if count:
                self.counters["misses"] += 1
            return None
        try:
            with open(path) as fh:
                result = SimResult.from_dict(json.load(fh))
            if count:
                self.counters["hits"] += 1
            return result
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            # A truncated or stale entry must not silently poison results:
            # warn, drop the file and let the caller re-simulate.
            _log.warning("discarding corrupt result cache entry %s (%s: %s)",
                         path, type(exc).__name__, exc)
            path.unlink(missing_ok=True)
            if count:
                self.counters["misses"] += 1
            self.counters["corrupt_evicted"] += 1
            return None

    def store(self, result: SimResult) -> None:
        self.counters["stores"] += 1
        # Concurrent writers of the same pair (parallel fills, overlapping
        # run_all invocations) must never corrupt an entry: write to a
        # uniquely named temp file in the same directory, then atomically
        # rename it over the destination.
        path = self._result_path(result.workload, result.config)
        payload = json.dumps(result.to_dict(), sort_keys=True)
        self._atomic_write(path, payload)

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        publish(path, lambda tmp: Path(tmp).write_text(text))

    # -- host timing estimates (sweep-engine scheduling) -------------------

    @staticmethod
    def _valid_estimate(key, value) -> bool:
        """An estimate entry the scheduler can use: a ``workload::config``
        key and a finite positive wall time."""
        if not isinstance(key, str) or "::" not in key:
            return False
        try:
            seconds = float(value)
        except (TypeError, ValueError):
            return False
        return math.isfinite(seconds) and seconds > 0

    def load_estimates(self) -> Dict[str, float]:
        """Measured ``sim_wall_seconds`` per ``"workload::config"`` at the
        current scale; the sweep engine orders cold pairs by these.

        A missing sidecar is the normal cold-start case and reads as
        empty with no warning (the engine falls back to its
        deterministic footprint×config-weight ordering). Individual
        stale or malformed entries are skipped — one bad key must not
        throw away every usable measurement — and only a sidecar that is
        not JSON at all earns a (single) warning before being ignored.
        """
        path = self._estimates_path()
        if not path.exists():
            return {}
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            _log.warning("ignoring unreadable estimates sidecar %s (%s)",
                         path, exc)
            return {}
        if not isinstance(data, dict):
            _log.warning("ignoring estimates sidecar %s (not an object)",
                         path)
            return {}
        return {k: float(v) for k, v in data.items()
                if self._valid_estimate(k, v)}

    def store_estimates(self, estimates: Dict[str, float]) -> None:
        """Merge ``estimates`` into the sidecar (atomic replace; a lost
        update from a concurrent fill only costs scheduling accuracy).

        Rewrites prune stale keys: entries naming a workload that no
        longer exists (renamed suites, deleted families) would otherwise
        ride along forever and mis-order future fills.
        """
        from ..trace.workloads import workload_names

        merged = self.load_estimates()
        merged.update(
            {k: v for k, v in estimates.items()
             if self._valid_estimate(k, v)})
        known = set(workload_names())
        merged = {k: v for k, v in merged.items()
                  if k.split("::", 1)[0] in known
                  or is_imported_workload(k.split("::", 1)[0])
                  or is_smt_workload(k.split("::", 1)[0])}
        self._atomic_write(self._estimates_path(),
                           json.dumps(merged, sort_keys=True))

    # -- traces ------------------------------------------------------------

    def trace_exists(self, workload_name: str) -> bool:
        return self._trace_path(workload_name).exists()

    def array_trace_for(self, workload: Workload) -> ArrayTrace:
        """The workload's trace as a columnar :class:`ArrayTrace`,
        generated (and persisted) on first use. The trace carries a
        :class:`~repro.cpu.precompute.Sidecars` store, so its per-trace
        precompute persists beside the file (see
        :mod:`repro.cpu.precompute`)."""
        path = self._trace_path(workload)
        trace = None
        if path.exists():
            try:
                trace = read_trace(path)
            except (OSError, TraceError) as exc:
                # Damaged files and containers older than the current
                # format: warn, drop the file and regenerate the trace.
                _log.warning("regenerating unreadable cached trace %s "
                             "(%s: %s)", path, type(exc).__name__, exc)
                path.unlink(missing_ok=True)
        if trace is None:
            trace = workload.generate()
            # Atomic publish: concurrent generators of the same workload
            # (e.g. two overlapping fills) each write a unique temp file
            # and the last rename wins with identical bytes.
            publish(path, lambda tmp: write_trace(tmp, trace))
        trace.derived[SIDECARS] = Sidecars(path, trace.digest,
                                           RESULTS_VERSION)
        return trace


_default_cache = None


def default_cache() -> ResultCache:
    global _default_cache
    if _default_cache is None:
        _default_cache = ResultCache()
    return _default_cache


def _simulate_smt(workload: SMTWorkload, config: str,
                  cache: Optional[ResultCache] = None) -> SimResult:
    """Simulate an ``smt:`` co-run pair: component traces load through
    the ordinary trace cache, each becomes one hardware thread of an
    :class:`repro.smt.SMTMachine`, and the composite result carries each
    thread's own :class:`SimResult` under ``extra["threads"]``."""
    from ..smt import build_smt_machine

    if cache is None:
        cache = default_cache()
    components = workload.component_workloads()
    traces = [cache.array_trace_for(w) for w in components]
    windows = [w.windows() for w in components]
    machine = build_smt_machine(traces, config, policy=workload.policy)
    t0 = perf_counter()
    result = machine.run(windows)
    wall = perf_counter() - t0
    result.workload = workload.name
    result.config = config
    for comp, tdict in zip(components, result.extra["threads"]):
        tdict["workload"] = comp.name
        tdict["config"] = config
    result.extra["sim_wall_seconds"] = round(wall, 6)
    if wall > 0:
        result.extra["sim_cycles_per_sec"] = round(result.cycles / wall)
        result.extra["sim_instrs_per_sec"] = round(
            result.instructions / wall)
    return result


def _simulate(workload: Workload, config: str,
              trace: Optional[ArrayTrace] = None,
              cache: Optional[ResultCache] = None) -> SimResult:
    if isinstance(workload, SMTWorkload):
        return _simulate_smt(workload, config, cache)
    if trace is None:
        trace = default_cache().array_trace_for(workload)
    warmup, measure = workload.windows()
    machine = build_machine(trace, config)
    icache = machine.icache
    analysis = isinstance(icache, ConventionalICache) and config == "conv32"
    if analysis:
        icache.track_touch_distance = True
    t0 = perf_counter()
    result = machine.run(warmup, measure)
    wall = perf_counter() - t0
    result.workload = workload.name
    result.config = config
    # Simulator throughput for the host-performance baseline: every
    # benchmark JSON records how fast this run simulated.
    result.extra["sim_wall_seconds"] = round(wall, 6)
    if wall > 0:
        result.extra["sim_cycles_per_sec"] = round(result.cycles / wall)
        result.extra["sim_instrs_per_sec"] = round(measure / wall)
    if analysis:
        # End-of-run flush so low-MPKI workloads (whose blocks are never
        # evicted) still contribute lifetime byte-usage counts.
        icache.flush_residents_into_stats()
        result.extra["byte_usage_counts"] = list(icache.byte_usage.counts)
        result.extra["touch_distance"] = {
            str(n): icache.touch_distance.fraction(n) for n in range(1, 5)
        }
    return result


def run_pair(workload_name: str, config: str,
             trace: Optional[ArrayTrace] = None) -> SimResult:
    """Cached simulation of one (workload, config) pair."""
    cache = default_cache()
    hit = cache.load(workload_name, config)
    if hit is not None:
        return hit
    result = _simulate(get_workload(workload_name), config, trace)
    cache.store(result)
    return result

