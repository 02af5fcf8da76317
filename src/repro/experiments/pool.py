"""Pair-granular parallel sweep engine.

The experiment campaign (~150 (workload, config) pairs) is embarrassingly
parallel at pair granularity, but naive parallelisation wastes most of
the win: workload-group scheduling pins the wall clock to the slowest
group, and every worker re-decodes its trace from disk into Python
objects. :class:`SweepEngine` fixes both:

* **Pair-granular dynamic load balancing** — every missing (workload,
  config) pair is an independent task pulled from one global queue the
  moment a worker frees up, ordered longest-expected-first using the
  measured ``sim_wall_seconds`` of previous runs (persisted in the
  result cache's ``estimates__s<scale>.json`` sidecar, with a
  footprint×config heuristic for never-seen pairs). No straggler group
  can serialise the tail of the fill.
* **Shared-memory columnar traces** — the host decodes/generates each
  workload trace once as an :class:`~repro.trace.arrays.ArrayTrace` and
  publishes its serialised bytes into a
  :mod:`multiprocessing.shared_memory` segment; workers attach the
  columns zero-copy. One decode per host instead of one per worker, and
  a per-worker memo (small LRU) makes repeat pairs of the same workload
  free.
* **Single-flight trace generation** — for a workload whose trace is not
  on disk yet, only one "pioneer" pair is dispatched; its worker
  generates and atomically persists the trace, and the workload's
  remaining pairs unblock when it completes. Concurrent workers never
  duplicate generation work, and deduplicated input pairs plus a
  worker-side cache re-check guarantee no pair is simulated twice.

Results land in the same on-disk :class:`ResultCache` as the serial
path, and simulation is deterministic, so parallel and serial fills are
byte-identical (tests/experiments/test_run_all.py). Shared-memory
segments are unlinked as soon as a workload's last pair completes, and
unconditionally on the way out of :meth:`SweepEngine.run`.

With ``persistent=True`` the engine instead keeps its warm state alive
*across* :meth:`run` calls — the inline trace memo, the process pool and
a bounded LRU of published shared-memory segments all survive until
:meth:`close` — which is what lets a long-running owner (the
:mod:`repro.service` daemon) answer many independent requests without
re-paying pool spin-up or trace decode each time. Persistent engines
assume a fixed ``REPRO_SCALE`` for their lifetime (worker trace memos
are keyed by workload name only) and must be closed explicitly;
:class:`SweepEngine` is also a context manager for exactly that.

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
import logging
from collections import OrderedDict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..stats.counters import SimResult
from ..trace.arrays import ArrayTrace
from ..trace.workloads import get_workload, is_smt_workload
from .runner import ResultCache, _simulate, default_cache

Pair = Tuple[str, str]
#: progress(workload, config, done, todo_total) after each simulated pair.
ProgressFn = Callable[[str, str, int, int], None]

_log = logging.getLogger(__name__)

#: Traces memoised per worker process (and by the inline engine).
TRACE_MEMO_LIMIT = 4

#: Shared-memory trace segments a persistent engine keeps warm (LRU).
PERSIST_SHM_LIMIT = 4

#: Relative cost of a configuration family, used to order never-measured
#: pairs longest-expected-first (sub-block designs simulate slower than
#: conventional caches; the ideal cache skips most of the memory model).
_CONFIG_WEIGHTS = (
    ("ideal", 0.5),
    ("small", 1.7),
    ("distill", 1.6),
    ("ubs", 1.5),
    ("conv", 1.0),
)


def estimate_key(workload: str, config: str) -> str:
    return f"{workload}::{config}"


def expected_cost(pair: Pair, estimates: Dict[str, float]) -> float:
    """Expected wall seconds of a pair: measured when available, else a
    footprint×config-weight heuristic (only the ordering matters)."""
    est = estimates.get(estimate_key(*pair))
    if est is not None:
        return est
    weight = 1.0
    for prefix, value in _CONFIG_WEIGHTS:
        if pair[1].startswith(prefix):
            weight = value
            break
    return weight * get_workload(pair[0]).spec.n_functions / 1000.0


# -- worker side --------------------------------------------------------------

_worker_caches: Dict[str, ResultCache] = {}
_worker_traces: "OrderedDict[str, Tuple[ArrayTrace, Optional[object]]]" = \
    OrderedDict()
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


def _worker_trace(cache: ResultCache, workload: str,
                  shm_name: Optional[str]) -> ArrayTrace:
    """This worker's columnar trace for ``workload``: memoised, attached
    zero-copy from shared memory when the host published it, otherwise
    loaded/generated through the disk cache."""
    memo = _worker_traces
    hit = memo.get(workload)
    if hit is not None:
        memo.move_to_end(workload)
        return hit[0]
    shm = None
    if shm_name is not None:
        from multiprocessing import resource_tracker, shared_memory

        # Attach without registering: on Python < 3.13 attaching also
        # registers the segment with the resource tracker (there is no
        # ``track=False`` yet), and that late REGISTER races with the
        # host's unlink-time UNREGISTER, producing spurious "leaked
        # shared_memory objects" warnings at shutdown. The host owns the
        # segment's lifecycle; workers must not track it.
        real_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            shm = shared_memory.SharedMemory(name=shm_name)
        finally:
            resource_tracker.register = real_register
        trace = ArrayTrace.from_shared_memory(shm)
    else:
        trace = cache.array_trace_for(get_workload(workload))
    memo[workload] = (trace, shm)
    while len(memo) > TRACE_MEMO_LIMIT:
        _name, (old_trace, old_shm) = memo.popitem(last=False)
        old_trace.release()
        if old_shm is not None:
            old_shm.close()
    return trace


def _worker_run_pair(workload: str, config: str, shm_name: Optional[str],
                     cache_root: str,
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
            if is_smt_workload(workload):
                # Co-run pairs have no single trace to fan out; the SMT
                # runner pulls each component through the disk cache.
                result = _simulate(get_workload(workload), config,
                                   cache=cache)
            else:
                trace = _worker_trace(cache, workload, shm_name)
                result = _simulate(get_workload(workload), config, trace)
            cache.store(result)
        return result

    if tracer is not None:
        with tracer.span("pair", workload=workload, config=config,
                         key=estimate_key(workload, config)):
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
        self._published: "OrderedDict[str, object]" = \
            OrderedDict()                              # workload -> SharedMemory

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release warm state: shut the persistent pool down, unlink the
        kept shared-memory segments, drop the trace memo. Idempotent;
        a no-op for non-persistent engines (their state never outlives
        :meth:`run`)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        while self._published:
            _name, shm = self._published.popitem(last=False)
            try:
                shm.close()
                shm.unlink()
            except OSError:       # pragma: no cover - defensive
                _log.warning("failed to unlink trace segment %s", _name)
        for trace in self._memo.values():
            trace.release()
        self._memo.clear()

    @property
    def pairs_per_min(self) -> float:
        """Simulated pairs per minute of the last :meth:`run` fill."""
        if not self.fill_seconds:
            return 0.0
        return self.pairs_simulated * 60.0 / self.fill_seconds

    def _charge(self, stage: str, t0: float) -> None:
        prof = self.profiler
        if prof is not None:
            dt = perf_counter() - t0
            prof.stage_seconds[stage] = prof.stage_seconds.get(stage, 0) + dt
            prof.stage_calls[stage] = prof.stage_calls.get(stage, 0) + 1

    def run(self, pairs: Iterable[Pair],
            progress: Optional[ProgressFn] = None) -> Dict[Pair, SimResult]:
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
                estimates = cache.load_estimates()
                todo.sort(key=lambda p: -expected_cost(p, estimates))
                obs = self.obs
                if obs is not None:
                    obs.sweep_started(
                        todo, len(ordered),
                        {p: expected_cost(p, estimates) for p in todo},
                        self.jobs)
                fresh: Dict[str, float] = {}
                try:
                    if self.jobs == 1:
                        self._run_inline(todo, results, fresh, progress)
                    else:
                        self._run_pool(todo, results, fresh, progress)
                finally:
                    if obs is not None:
                        obs.sweep_finished(self)
                t0 = perf_counter()
                cache.store_estimates(fresh)
                self._charge("store", t0)
            self.fill_seconds = perf_counter() - start
            return results
        finally:
            if prof is not None:
                prof.stop()

    # -- inline (jobs == 1) ------------------------------------------------

    def _run_inline(self, todo: List[Pair], results: Dict[Pair, SimResult],
                    estimates: Dict[str, float],
                    progress: Optional[ProgressFn]) -> None:
        cache = self.cache
        obs = self.obs
        # A persistent engine's memo survives this run, so repeat
        # requests for the same workload skip the decode entirely.
        memo = self._memo if self.persistent else OrderedDict()
        done = 0
        for workload, config in todo:
            if obs is not None:
                obs.pair_started(workload, config)
            trace = None
            if not is_smt_workload(workload):
                # Co-run pairs skip the memo: their component traces load
                # through the disk cache inside the SMT runner.
                trace = memo.get(workload)
                if trace is None:
                    t0 = perf_counter()
                    trace = cache.array_trace_for(get_workload(workload))
                    self._charge("trace", t0)
                    memo[workload] = trace
                    while len(memo) > TRACE_MEMO_LIMIT:
                        memo.popitem(last=False)
                else:
                    memo.move_to_end(workload)
            t0 = perf_counter()
            result = _simulate(get_workload(workload), config, trace,
                               cache=cache)
            self._charge("simulate", t0)
            cache.store(result)
            self._note_done(results, estimates, workload, config, result)
            done += 1
            if obs is not None:
                obs.pair_done(workload, config, result)
            if progress is not None:
                progress(workload, config, done, len(todo))

    # -- process pool (jobs > 1) -------------------------------------------

    def _run_pool(self, todo: List[Pair], results: Dict[Pair, SimResult],
                  estimates: Dict[str, float],
                  progress: Optional[ProgressFn]) -> None:
        from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                        wait)

        cache = self.cache
        cache_root = str(cache.root)
        remaining: Dict[str, int] = {}
        for workload, _config in todo:
            remaining[workload] = remaining.get(workload, 0) + 1

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

        # Per-run segments are unlinked at each workload's last pair; a
        # persistent engine instead keeps a bounded LRU of segments warm
        # across runs (unlinked only on eviction or close()).
        published = self._published if self.persistent else OrderedDict()

        def publish(workload: str) -> Optional[str]:
            """Shared-memory name for a workload's trace, creating the
            segment when ≥2 of its pairs still need it."""
            shm = published.get(workload)
            if shm is not None:
                published.move_to_end(workload)
                return shm.name
            if remaining[workload] < 2 or not cache.trace_exists(workload):
                return None          # pioneer run, or not worth a segment
            t0 = perf_counter()
            trace = cache.array_trace_for(get_workload(workload))
            shm = trace.to_shared_memory()
            trace.release()
            published[workload] = shm
            while self.persistent and len(published) > PERSIST_SHM_LIMIT:
                unpublish(next(iter(published)))
            self._charge("publish", t0)
            return shm.name

        def unpublish(workload: str) -> None:
            shm = published.pop(workload, None)
            if shm is not None:
                shm.close()
                shm.unlink()

        done = 0
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
                                         config, publish(workload),
                                         cache_root, carrier)
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
                    self._note_done(results, estimates, workload, config,
                                    result)
                    remaining[workload] -= 1
                    if remaining[workload] == 0 and not self.persistent:
                        unpublish(workload)
                    waiters = blocked.pop(workload, None)
                    if waiters:      # pioneer done: trace is on disk now
                        base = len(todo)
                        for offset, pair in enumerate(waiters):
                            heapq.heappush(ready,
                                           (base + offset,) + pair)
                    done += 1
                    if obs is not None:
                        obs.pair_done(workload, config, result)
                    if progress is not None:
                        progress(workload, config, done, len(todo))
        finally:
            if not self.persistent:
                pool.shutdown(wait=True)
                for workload in list(published):
                    try:
                        unpublish(workload)
                    except OSError:   # pragma: no cover - defensive
                        _log.warning("failed to unlink trace segment for %s",
                                     workload)

    @staticmethod
    def _note_done(results, estimates, workload, config,
                   result: SimResult) -> None:
        results[(workload, config)] = result
        wall = result.extra.get("sim_wall_seconds")
        if wall:
            estimates[estimate_key(workload, config)] = wall


def run_pairs(pairs: Iterable[Pair], jobs: int = 1,
              cache: Optional[ResultCache] = None,
              progress: Optional[ProgressFn] = None,
              profiler=None, obs=None) -> Dict[Pair, SimResult]:
    """Convenience wrapper: one :class:`SweepEngine` run."""
    return SweepEngine(jobs=jobs, cache=cache, profiler=profiler,
                       obs=obs).run(pairs, progress=progress)
