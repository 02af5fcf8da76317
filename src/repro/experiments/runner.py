"""Cached simulation runner shared by every benchmark.

Every entry point turns a (workload, config) pair into a
:class:`~repro.stats.counters.SimResult` through two functions here:
:func:`pair_machine` builds the machine (a
:class:`~repro.cpu.machine.Machine`, or an :class:`~repro.smt.SMTMachine`
for an ``smt:`` co-run; any config name, ``_f<N>`` suffix included) and
:func:`run_machine` runs it and stamps the result. :func:`repro.simulate`,
``python -m repro run``/``compare`` and the cached runner below call
them; only the runner adds extras (host timing, the conv32 analysis).

``run_pair(workload, config)`` simulates one pair, solo or co-run, and
caches the :class:`~repro.stats.counters.SimResult` as
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

Solo baseline ``conv32`` runs always collect the motivation-analysis extras
(byte-usage histogram with end-of-run resident flush, Fig. 4 touch
distances), so the analysis figures reuse the same simulations as the
performance figures.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple, Union

from ..cpu.machine import (Core, Machine, build_icache, build_machine,
                           split_machine_config)
from ..cpu.precompute import SIDECARS, Sidecars
from ..errors import ConfigurationError, TraceError
from ..memory.icache import InstructionCacheBase
from ..params import MachineParams
from ..stats.counters import SimResult
from ..telemetry import Telemetry
from ..trace.arrays import ArrayTrace
from ..trace.io import publish, read_trace, write_trace
from ..trace.synthesis import SYNTHESIS_FORMAT
from ..trace.workloads import (SMTWorkload, Workload, get_workload,
                               is_imported_workload, scale_factor)

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
        publish(path, lambda tmp: Path(tmp).write_text(payload))

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


# -- one (workload, config) pair (see the module docstring) -------------------

def machine_parts(config: str, params: Optional[MachineParams] = None
                  ) -> Tuple[InstructionCacheBase, Optional[MachineParams]]:
    """The L1-I that ``config`` names and the machine parameters of its
    ``_f<N>`` FTQ-depth suffix, or ``params`` instead; a name with a
    suffix and explicit ``params`` is an error. Raises
    :class:`~repro.errors.ConfigurationError` for any name it cannot
    build."""
    base, override = split_machine_config(config)
    if override is not None and params is not None:
        raise ConfigurationError(
            f"configuration {config!r} carries a machine-level suffix; "
            "pass either the suffix or explicit params, not both")
    return build_icache(base), override if params is None else params


def pair_machine(workload: Workload, config: str,
                 traces: Sequence[ArrayTrace],
                 params: Optional[MachineParams] = None,
                 telemetry: Optional[Telemetry] = None) -> Core:
    """The machine simulating ``config`` on ``workload`` over ``traces``
    (one per :meth:`~repro.trace.workloads.Workload.component_workloads`
    entry): for a co-run an
    :class:`~repro.smt.SMTMachine` with its arbitration policy, else a
    :class:`~repro.cpu.machine.Machine`. See :func:`machine_parts` for
    ``config`` and ``params``."""
    if not isinstance(workload, SMTWorkload):
        if params is None:
            return build_machine(traces[0], config, telemetry)
        return Machine(traces[0], *machine_parts(config, params), telemetry)
    from .. import smt      # solo runs never load the SMT package

    if params is None:
        return smt.build_smt_machine(traces, config, telemetry,
                                     policy=workload.policy)
    return smt.SMTMachine(traces, *machine_parts(config, params), telemetry,
                          workload.policy)


def run_machine(machine: Core, workload: Workload, config: str,
                sample_efficiency: bool = True) -> SimResult:
    """Run a :func:`pair_machine` machine over each thread's
    ``(warmup, measure)`` windows; its result carries ``workload``'s name
    and ``config``, and so does each thread's result of a co-run (under
    ``extra["threads"]``, with the thread's own workload name)."""
    threads = workload.component_workloads()
    windows = [w.windows() for w in threads]
    if isinstance(workload, SMTWorkload):
        result = machine.run(windows, sample_efficiency)
        for thread, tdict in zip(threads, result.extra["threads"]):
            tdict["workload"] = thread.name
            tdict["config"] = config
    else:
        result = machine.run(*windows[0], sample_efficiency)
    result.workload = workload.name
    result.config = config
    return result


# -- the cached runner ---------------------------------------------------------

#: Traces memoised per pool worker process (and by the inline engine).
TRACE_MEMO_LIMIT = 4


def _memo_trace(memo: "OrderedDict[str, ArrayTrace]", cache: ResultCache,
                workload: Workload) -> ArrayTrace:
    """``workload``'s columnar trace from ``memo``, an LRU of at most
    :data:`TRACE_MEMO_LIMIT` traces over ``cache``: a miss reads (or
    generates and persists) the trace through
    :meth:`ResultCache.array_trace_for`."""
    trace = memo.get(workload.name)
    if trace is not None:
        memo.move_to_end(workload.name)
        return trace
    trace = memo[workload.name] = cache.array_trace_for(workload)
    while len(memo) > TRACE_MEMO_LIMIT:
        memo.popitem(last=False)
    return trace


def _simulate(workload_name: str, config: str, cache: ResultCache,
              memo: Optional["OrderedDict[str, ArrayTrace]"] = None
              ) -> SimResult:
    """Simulate one pair, solo or co-run, on traces from ``cache`` looked
    up through ``memo`` (see :func:`_memo_trace`; a fresh one when None),
    add the runner's extras (host timing; for a solo ``conv32`` run the
    motivation analysis) and store the result in ``cache``."""
    workload = get_workload(workload_name)
    if memo is None:
        memo = OrderedDict()
    traces = [_memo_trace(memo, cache, w)
              for w in workload.component_workloads()]
    machine = pair_machine(workload, config, traces)
    icache = machine.icache
    analysis = config == "conv32" and len(traces) == 1
    if analysis:
        icache.track_touch_distance = True
    t0 = perf_counter()
    result = run_machine(machine, workload, config)
    wall = perf_counter() - t0
    # Simulator throughput for the host-performance baseline: every
    # benchmark JSON records how fast this run simulated.
    result.extra["sim_wall_seconds"] = round(wall, 6)
    if wall > 0:
        result.extra["sim_cycles_per_sec"] = round(result.cycles / wall)
        result.extra["sim_instrs_per_sec"] = round(
            result.instructions / wall)
    if analysis:
        # End-of-run flush so low-MPKI workloads (whose blocks are never
        # evicted) still contribute lifetime byte-usage counts.
        icache.flush_residents_into_stats()
        result.extra["byte_usage_counts"] = list(icache.byte_usage.counts)
        result.extra["touch_distance"] = {
            str(n): icache.touch_distance.fraction(n) for n in range(1, 5)
        }
    cache.store(result)
    return result


def run_pair(workload_name: str, config: str) -> SimResult:
    """Cached simulation of one (workload, config) pair."""
    cache = default_cache()
    hit = cache.load(workload_name, config)
    if hit is not None:
        return hit
    return _simulate(workload_name, config, cache)
