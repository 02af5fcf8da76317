"""Pair-granular parallel sweep engine.

The experiment campaign (~150 (workload, config) pairs) is embarrassingly
parallel at pair granularity, but naive parallelisation wastes most of
the win: workload-group scheduling pins the wall clock to the slowest
group, and every pair re-reads or re-generates its workload's trace.
:class:`SweepEngine` fixes both:

* **Pair-granular dynamic load balancing** — every missing (workload,
  config) pair is an independent task pulled from one global queue the
  moment a worker frees up, ordered longest-expected-first by
  :func:`expected_cost`, a workload-footprint × config-family
  heuristic. No straggler group can serialise the tail of the fill.
  The same costs seed the live progress ETA.
* **One trace hand-off: the on-disk trace cache** — a trace crosses a
  process boundary only as the ``.atrace`` file of
  :meth:`ResultCache.array_trace_for`, whose columns load zero-copy
  from one buffer read. Each worker (and the inline engine) keeps a
  small LRU of :class:`~repro.trace.arrays.ArrayTrace` objects over
  that cache (:func:`repro.experiments.runner._memo_trace`), so repeat
  pairs of the same workload read nothing.
* **Single-flight trace generation** — for a workload whose trace is not
  on disk yet, only one "pioneer" pair is dispatched; its worker
  generates and atomically persists the trace, and the workload's
  remaining pairs unblock when it completes. Concurrent workers never
  duplicate generation work, and deduplicated input pairs plus a
  worker-side cache re-check guarantee no pair is simulated twice.

Results land in the same on-disk :class:`ResultCache` as the serial
path, and simulation is deterministic, so parallel and serial fills are
byte-identical (tests/experiments/test_run_all.py). The engine
allocates no shared-memory segments, so nothing needs unlinking when a
sweep ends or is killed.

With ``persistent=True`` the engine instead keeps its warm state alive
*across* :meth:`run` calls — the inline trace memo, the process pool and
its workers' trace memos all survive until :meth:`close` — which is
what lets a long-running owner (the :mod:`repro.service` daemon) answer
many independent requests without re-paying pool spin-up or trace reads
each time. Persistent engines assume a fixed ``REPRO_SCALE`` for their
lifetime (worker trace memos are keyed by workload name only) and must
be closed explicitly; :class:`SweepEngine` is also a context manager for
exactly that.

With an observer attached (``obs=``, a :class:`repro.obs.RunObs`) the
engine additionally emits a ``sweep`` span per run and one ``pair`` span
per simulated pair — in pool mode the *worker* emits its pair span via
the trace carrier threaded through ``submit`` (plus per-pid heartbeat
records), so host and workers reconstruct as one tree; worker-side cache
counter deltas are folded back into the host cache's counters either
way. All hooks sit at pair granularity behind ``obs is not None``
guards: runs without an observer are unchanged.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

from ..stats.counters import SimResult
from ..trace.arrays import ArrayTrace
from ..trace.workloads import get_workload
from .runner import ResultCache, _simulate, default_cache

Pair = Tuple[str, str]

#: Relative cost of a configuration family, used to order cold pairs
#: longest-expected-first (sub-block designs simulate slower than
#: conventional caches; the ideal cache skips most of the memory model).
_CONFIG_WEIGHTS = (
    ("ideal", 0.5),
    ("small", 1.7),
    ("distill", 1.6),
    ("ubs", 1.5),
    ("conv", 1.0),
)


def pair_key(workload: str, config: str) -> str:
    """The ``workload::config`` name of a pair (span attributes, the
    daemon's result keys, ``--pairs`` filters)."""
    return f"{workload}::{config}"


def expected_cost(pair: Pair) -> float:
    """Relative simulation cost of a pair: the workload's code footprint
    (function count) times its config family's weight. The engine orders
    cold pairs by it; the progress ETA calibrates it to seconds."""
    weight = 1.0
    for prefix, value in _CONFIG_WEIGHTS:
        if pair[1].startswith(prefix):
            weight = value
            break
    return weight * get_workload(pair[0]).spec.n_functions / 1000.0


# -- worker side --------------------------------------------------------------

_worker_caches: Dict[str, ResultCache] = {}
_worker_traces: "OrderedDict[str, ArrayTrace]" = OrderedDict()
_worker_heartbeats: Dict[str, object] = {}


def _worker_init() -> None:
    """Pool-worker initializer: exit as soon as the parent process dies.

    A worker otherwise waits on its task queue for ever when its parent
    is killed (SIGKILL runs no executor shutdown), and is re-parented to
    init. A daemon thread blocks on the parent's sentinel, which becomes
    ready when the parent exits.
    """
    import multiprocessing
    import os
    import threading
    from multiprocessing.connection import wait

    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def exit_with_parent() -> None:
        wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=exit_with_parent, name="exit-with-parent",
                     daemon=True).start()


def _worker_heartbeat(obs_dir: str):
    """This worker's heartbeat file under ``<obs_dir>/heartbeats/``."""
    beat = _worker_heartbeats.get(obs_dir)
    if beat is None:
        from ..obs.runs import Heartbeat

        beat = _worker_heartbeats[obs_dir] = Heartbeat(obs_dir)
    return beat


def _worker_cache(root: str) -> ResultCache:
    cache = _worker_caches.get(root)
    if cache is None:
        cache = _worker_caches[root] = ResultCache(root)
    return cache


def _worker_run_pair(workload: str, config: str, cache_root: str,
                     obs_carrier: Optional[Dict[str, str]] = None,
                     ) -> Tuple[str, str, dict, Dict[str, int]]:
    """Pool entry point: simulate one pair into the shared disk cache.

    With an ``obs_carrier`` (see :meth:`repro.obs.Tracer.carrier`) the
    worker joins the host's trace: it emits one ``pair`` span parented to
    the host's sweep span into the shared ``spans.jsonl`` and appends
    ``run``/``idle`` records to its per-pid heartbeat file. The returned
    counter delta lets the host fold worker-side cache behaviour into
    its own :attr:`ResultCache.counters`.
    """
    cache = _worker_cache(cache_root)
    before = dict(cache.counters)
    beat = tracer = None
    if obs_carrier is not None:
        from ..obs.spans import Tracer

        tracer = Tracer.from_carrier(obs_carrier)
        beat = _worker_heartbeat(obs_carrier["obs_dir"])
        beat.beat("run", workload=workload, config=config)

    def run() -> SimResult:
        # Single-flight re-check: a concurrent fill may have produced
        # this pair since it was scheduled; never simulate twice. The
        # host's scan already counted this pair's miss, so the re-check
        # stays out of the counters.
        result = cache.load(workload, config, count=False)
        if result is None:
            result = _simulate(workload, config, cache, _worker_traces)
        return result

    if tracer is not None:
        with tracer.span("pair", workload=workload, config=config,
                         key=pair_key(workload, config)):
            result = run()
    else:
        result = run()
    if beat is not None:
        beat.done += 1
        beat.beat("idle")
    delta = {k: cache.counters[k] - before[k] for k in before}
    return workload, config, result.to_dict(), delta


# -- host side ----------------------------------------------------------------

class SweepEngine:
    """Schedules (workload, config) pairs; see the module docstring.

    ``jobs == 1`` simulates inline in the same scheduling order (no
    process pool, traces memoised in-process); ``jobs > 1`` runs a
    ``ProcessPoolExecutor``, created per :meth:`run` by default or kept
    alive across runs with ``persistent=True`` (see the module
    docstring). After :meth:`run`, :attr:`fill_seconds` /
    :attr:`pairs_simulated` describe the fill (``pairs_per_min``
    derives the campaign throughput metric).
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 profiler=None, obs=None, persistent: bool = False) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache if cache is not None else default_cache()
        self.profiler = profiler        # telemetry.StageProfiler or None
        self.obs = obs                  # repro.obs.RunObs or None
        self.persistent = persistent
        self.fill_seconds = 0.0
        self.pairs_simulated = 0
        # Warm state a persistent engine carries between run() calls.
        self._memo: "OrderedDict[str, ArrayTrace]" = OrderedDict()
        self._pool = None                              # ProcessPoolExecutor

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release warm state: shut the persistent pool down (its workers'
        trace memos go with it) and drop the inline trace memo.
        Idempotent; a no-op for non-persistent engines (their state never
        outlives :meth:`run`)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._memo.clear()

    @property
    def pairs_per_min(self) -> float:
        """Simulated pairs per minute of the last :meth:`run` fill."""
        if not self.fill_seconds:
            return 0.0
        return self.pairs_simulated * 60.0 / self.fill_seconds

    def _charge(self, stage: str, t0: float) -> None:
        if self.profiler is not None:
            self.profiler.charge(stage, perf_counter() - t0)

    def run(self, pairs: Iterable[Pair]) -> Dict[Pair, SimResult]:
        """Simulate every missing pair; return results for *all* pairs."""
        prof = self.profiler
        if prof is not None:
            prof.start()
        start = perf_counter()
        try:
            ordered: List[Pair] = []
            seen = set()
            for pair in pairs:
                pair = (pair[0], pair[1])
                if pair not in seen:          # dedup: simulate once, ever
                    seen.add(pair)
                    ordered.append(pair)

            cache = self.cache
            results: Dict[Pair, SimResult] = {}
            todo: List[Pair] = []
            t0 = perf_counter()
            for pair in ordered:
                hit = cache.load(*pair)
                if hit is not None:
                    results[pair] = hit
                else:
                    todo.append(pair)
            self._charge("scan", t0)

            self.pairs_simulated = len(todo)
            if todo:
                costs = {p: expected_cost(p) for p in todo}
                todo.sort(key=lambda p: -costs[p])
                obs = self.obs
                if obs is not None:
                    obs.sweep_started(todo, len(ordered), costs, self.jobs)
                try:
                    if self.jobs == 1:
                        self._run_inline(todo, results)
                    else:
                        self._run_pool(todo, results)
                finally:
                    if obs is not None:
                        obs.sweep_finished(self)
            self.fill_seconds = perf_counter() - start
            return results
        finally:
            if prof is not None:
                prof.stop()

    # -- inline (jobs == 1) ------------------------------------------------

    def _run_inline(self, todo: List[Pair],
                    results: Dict[Pair, SimResult]) -> None:
        cache = self.cache
        obs = self.obs
        # A persistent engine's memo survives this run, so repeat
        # requests for the same workload skip the trace read entirely.
        memo = self._memo if self.persistent else OrderedDict()
        for workload, config in todo:
            if obs is not None:
                obs.pair_started(workload, config)
            t0 = perf_counter()
            result = _simulate(workload, config, cache, memo)
            self._charge("simulate", t0)
            results[(workload, config)] = result
            if obs is not None:
                obs.pair_done(workload, config, result)

    # -- process pool (jobs > 1) -------------------------------------------

    def _run_pool(self, todo: List[Pair],
                  results: Dict[Pair, SimResult]) -> None:
        from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                        wait)

        cache = self.cache
        cache_root = str(cache.root)

        # Ready heap (longest first; `todo` is already sorted so the index
        # is the tiebreak) and pairs blocked behind a pioneer generation.
        ready: List[Tuple[int, str, str]] = []
        blocked: Dict[str, List[Pair]] = {}
        pioneered = set()
        for index, (workload, config) in enumerate(todo):
            if cache.trace_exists(workload) or workload not in pioneered:
                pioneered.add(workload)
                heapq.heappush(ready, (index, workload, config))
            else:
                blocked.setdefault(workload, []).append((workload, config))

        obs = self.obs
        carrier = obs.worker_carrier() if obs is not None else None
        if self.persistent:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                                 initializer=_worker_init)
            pool = self._pool
        else:
            pool = ProcessPoolExecutor(max_workers=self.jobs,
                                       initializer=_worker_init)
        try:
            inflight = {}
            while ready or inflight:
                while ready and len(inflight) < self.jobs:
                    _idx, workload, config = heapq.heappop(ready)
                    future = pool.submit(_worker_run_pair, workload,
                                         config, cache_root, carrier)
                    inflight[future] = (workload, config)
                    if obs is not None:
                        obs.pair_started(workload, config)
                t0 = perf_counter()
                completed, _ = wait(inflight, return_when=FIRST_COMPLETED)
                self._charge("wait", t0)
                for future in completed:
                    workload, config = inflight.pop(future)
                    _w, _c, payload, delta = future.result()
                    for key, count in delta.items():
                        cache.counters[key] += count
                    result = SimResult.from_dict(payload)
                    results[(workload, config)] = result
                    waiters = blocked.pop(workload, None)
                    if waiters:      # pioneer done: trace is on disk now
                        base = len(todo)
                        for offset, pair in enumerate(waiters):
                            heapq.heappush(ready,
                                           (base + offset,) + pair)
                    if obs is not None:
                        obs.pair_done(workload, config, result)
        finally:
            if not self.persistent:
                pool.shutdown(wait=True)


def run_pairs(pairs: Iterable[Pair], jobs: int = 1,
              cache: Optional[ResultCache] = None) -> Dict[Pair, SimResult]:
    """Convenience wrapper: one :class:`SweepEngine` run."""
    return SweepEngine(jobs=jobs, cache=cache).run(pairs)
