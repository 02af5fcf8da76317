"""Search strategies and the evaluation loop of the DSE engine.

Three pluggable strategies behind one ``propose(history, rng)``
interface:

* :class:`GridSearch` — exhaustive over the space's grid (the catalogued
  way vectors crossed with the predictor/FTQ choices); for small spaces.
* :class:`RandomSearch` — seeded random sampling with budget repair, the
  cheap way to cover an unknown space.
* :class:`HillClimb` — greedy neighbourhood descent from the Table II
  default: evaluate a sampled set of one-granule mutations, move to the
  best strictly-improving neighbour, stop at a local optimum.

Evaluation fans out pair-granular through
:class:`repro.experiments.pool.SweepEngine`, so a search inherits the
parallel scheduler, the per-worker trace memos over the trace cache,
the on-disk ``ResultCache`` and single-flight dedup for free. Every
completed point is appended to a
:class:`repro.dse.journal.SearchJournal`; a resumed search replays the
strategy deterministically and answers journaled points without
simulating anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..experiments.pool import SweepEngine
from ..experiments.report import geomean, mean
from ..stats.counters import SimResult
from ..trace.workloads import scale_factor
from .journal import SearchJournal
from .pareto import MAX, MIN, frontier_gap, pareto_indices
from .space import DesignPoint, DesignSpace, default_point, \
    point_storage_bits

#: objective name -> (metric key, sense).
OBJECTIVES: Dict[str, Tuple[str, str]] = {
    "speedup": ("speedup_geomean", MAX),
    "mpki": ("mpki_mean", MIN),
    "efficiency": ("efficiency_mean", MAX),
}

#: progress(generation, new_records, done, budget) after each generation.
ProgressFn = Callable[[int, List["EvalRecord"], int, int], None]


@dataclass
class EvalRecord:
    """One evaluated design point (fresh or resumed from the journal)."""

    point: DesignPoint
    key: str
    metrics: Dict[str, float]
    per_workload: Dict[str, Dict[str, float]]
    resumed: bool = False

    def to_journal(self) -> Tuple[str, dict, dict, dict]:
        point = {
            "way_sizes": list(self.point.way_sizes),
            "predictor_entries": self.point.predictor_entries,
            "ftq_entries": self.point.ftq_entries,
        }
        return self.key, point, self.metrics, self.per_workload

    @classmethod
    def from_journal(cls, record: dict) -> "EvalRecord":
        raw = record["point"]
        point = DesignPoint(
            tuple(raw["way_sizes"]),
            raw["predictor_entries"],
            raw["ftq_entries"],
        )
        return cls(point=point, key=record["key"],
                   metrics=dict(record["metrics"]),
                   per_workload=dict(record["per_workload"]),
                   resumed=True)


def objective_score(record: EvalRecord, objective: str) -> float:
    """Scalar score of a record under ``objective`` (higher is better)."""
    try:
        metric, sense = OBJECTIVES[objective]
    except KeyError:
        raise ConfigurationError(
            f"unknown objective {objective!r}; "
            f"choose from {sorted(OBJECTIVES)}"
        ) from None
    value = record.metrics[metric]
    return value if sense == MAX else -value


class Evaluator:
    """Evaluates design points through the sweep engine + journal."""

    def __init__(self, space: DesignSpace, workloads: Sequence[str],
                 baseline: str = "conv32", jobs: int = 1,
                 cache=None, journal: Optional[SearchJournal] = None,
                 journaled: Optional[Dict[str, dict]] = None,
                 profiler=None, obs=None, engine=None) -> None:
        if not workloads:
            raise ConfigurationError("evaluator needs at least one workload")
        self.space = space
        self.workloads = list(workloads)
        self.baseline = baseline
        self.journal = journal
        # An injected engine (e.g. repro.service.RemoteEngine routing
        # pairs through a warm daemon) replaces the local sweep engine;
        # anything with SweepEngine's run()/pairs_simulated surface fits.
        # The local engine is persistent: its trace memo, and with
        # jobs > 1 its pool, outlive each generation's run, so every
        # trace is read and its BPU walked once per search rather than
        # once per generation. close() releases it.
        self._owned = None
        if engine is None:
            engine = self._owned = SweepEngine(
                jobs=jobs, cache=cache, profiler=profiler, obs=obs,
                persistent=True)
        self.engine = engine
        self.pairs_simulated = 0
        self.evals_resumed = 0
        self._journaled: Dict[str, dict] = dict(journaled or {})
        self._baselines: Dict[str, SimResult] = {}

    def close(self) -> None:
        """Release the local engine's warm state; an injected engine is
        left to its owner."""
        if self._owned is not None:
            self._owned.close()

    def evaluate(self, points: Sequence[DesignPoint]) -> List[EvalRecord]:
        """Evaluate a generation; journaled points cost nothing."""
        points = [self.space.canonicalise(p) for p in points]
        fresh: List[Tuple[DesignPoint, str]] = []
        for point in points:
            key = point.config_name
            if key not in self._journaled:
                fresh.append((point, key))

        if fresh:
            pairs = [(w, self.baseline) for w in self.workloads
                     if w not in self._baselines]
            for _point, key in fresh:
                pairs.extend((w, key) for w in self.workloads)
            results = self.engine.run(pairs)
            self.pairs_simulated += self.engine.pairs_simulated
            for workload in self.workloads:
                if workload not in self._baselines:
                    self._baselines[workload] = \
                        results[(workload, self.baseline)]

        records: List[EvalRecord] = []
        fresh_keys = {key for _p, key in fresh}
        for point in points:
            key = point.config_name
            if key in fresh_keys:
                record = self._measure(point, key, results)
                if self.journal is not None:
                    self.journal.append_eval(*record.to_journal())
                _k, jpoint, jmetrics, jper = record.to_journal()
                self._journaled[key] = {
                    "kind": "eval", "key": key, "point": jpoint,
                    "metrics": jmetrics, "per_workload": jper,
                }
                fresh_keys.discard(key)   # duplicate keys measured once
            else:
                record = EvalRecord.from_journal(self._journaled[key])
                self.evals_resumed += 1
            records.append(record)
        return records

    def _measure(self, point: DesignPoint, key: str,
                 results: Dict[Tuple[str, str], SimResult]) -> EvalRecord:
        per_workload: Dict[str, Dict[str, float]] = {}
        speedups: List[float] = []
        mpkis: List[float] = []
        efficiencies: List[float] = []
        for workload in self.workloads:
            result = results[(workload, key)]
            base = self._baselines[workload]
            speedup = result.speedup_over(base)
            speedups.append(speedup)
            mpkis.append(result.l1i_mpki)
            if result.efficiency is not None:
                efficiencies.append(result.efficiency.mean)
            per_workload[workload] = {
                "cycles": result.cycles,
                "instructions": result.instructions,
                "l1i_misses": result.frontend.l1i_misses,
                "speedup": speedup,
            }
        metrics = {
            "speedup_geomean": geomean(speedups),
            "mpki_mean": mean(mpkis),
            "efficiency_mean": mean(efficiencies),
            "storage_bits": point_storage_bits(point, sets=self.space.sets,
                                               granularity=self.space.size_step),
            "data_bytes": point.data_bytes,
        }
        return EvalRecord(point=point, key=key, metrics=metrics,
                          per_workload=per_workload)


# -- strategies ----------------------------------------------------------------


class SearchStrategy:
    """Interface: propose the next generation of points to evaluate."""

    name = "abstract"

    def propose(self, history: Sequence[EvalRecord],
                rng: random.Random) -> List[DesignPoint]:
        raise NotImplementedError


class GridSearch(SearchStrategy):
    """Exhaustive sweep of the space's grid, one generation."""

    name = "grid"

    def __init__(self, space: DesignSpace) -> None:
        self.space = space
        self._emitted = False

    def propose(self, history, rng):
        if self._emitted:
            return []
        self._emitted = True
        return self.space.grid()


class RandomSearch(SearchStrategy):
    """Seeded random sampling with budget repair."""

    name = "random"

    def __init__(self, space: DesignSpace, batch_size: int = 4) -> None:
        if batch_size < 1:
            raise ConfigurationError("batch size must be positive")
        self.space = space
        self.batch_size = batch_size

    def propose(self, history, rng):
        seen = {record.key for record in history}
        batch: List[DesignPoint] = []
        for _try in range(64 * self.batch_size):
            if len(batch) >= self.batch_size:
                break
            point = self.space.sample(rng)
            if point is None:
                continue
            key = point.config_name
            if key in seen:
                continue
            seen.add(key)
            batch.append(point)
        return batch


class HillClimb(SearchStrategy):
    """Greedy neighbourhood hill-climbing from a start point."""

    name = "hill"

    def __init__(self, space: DesignSpace, objective: str = "speedup",
                 start: Optional[DesignPoint] = None,
                 max_neighbors: int = 12) -> None:
        if max_neighbors < 1:
            raise ConfigurationError("max_neighbors must be positive")
        self.space = space
        self.objective = objective
        self.start = space.canonicalise(start or default_point())
        self.max_neighbors = max_neighbors
        self._current: Optional[EvalRecord] = None
        self._last_keys: Optional[set] = None
        self._done = False

    def propose(self, history, rng):
        if self._done:
            return []
        by_key = {record.key: record for record in history}
        if self._current is None:
            start_record = by_key.get(self.start.config_name)
            if start_record is None:
                return [self.start]
            self._current = start_record
        elif self._last_keys is not None:
            generation = [by_key[key] for key in sorted(self._last_keys)
                          if key in by_key]
            best = None
            for record in generation:
                if best is None or (objective_score(record, self.objective)
                                    > objective_score(best, self.objective)):
                    best = record
            current_score = objective_score(self._current, self.objective)
            if best is None or (objective_score(best, self.objective)
                                <= current_score + 1e-12):
                self._done = True        # local optimum
                return []
            self._current = best
        neighbors = [
            point for point in self.space.neighbors(self._current.point)
            if point.config_name not in by_key
        ]
        if len(neighbors) > self.max_neighbors:
            neighbors = sorted(rng.sample(neighbors, self.max_neighbors))
        if not neighbors:
            self._done = True
            return []
        self._last_keys = {point.config_name for point in neighbors}
        return neighbors


def make_strategy(name: str, space: DesignSpace, *,
                  objective: str = "speedup") -> SearchStrategy:
    """Factory for the CLI's ``--strategy`` names."""
    if name == "grid":
        return GridSearch(space)
    if name == "random":
        return RandomSearch(space)
    if name == "hill":
        return HillClimb(space, objective=objective)
    raise ConfigurationError(
        f"unknown search strategy {name!r}; choose grid, random or hill"
    )


# -- the search driver ---------------------------------------------------------


@dataclass
class SearchOutcome:
    """Everything a report needs from one finished search."""

    strategy: str
    objective: str
    records: List[EvalRecord] = field(default_factory=list)
    frontier: List[EvalRecord] = field(default_factory=list)
    best: Optional[EvalRecord] = None
    default: Optional[EvalRecord] = None
    default_gap: float = 0.0
    generations: int = 0
    pairs_simulated: int = 0
    evals_resumed: int = 0

    def ranked(self) -> List[EvalRecord]:
        """Records ranked best-first under the outcome's objective, with
        the point key as the deterministic tie-break."""
        return sorted(
            self.records,
            key=lambda r: (-objective_score(r, self.objective), r.key))


def journal_meta(space: DesignSpace, strategy: SearchStrategy,
                 workloads: Sequence[str], *, seed: int,
                 objective: str, baseline: str) -> dict:
    """Header fields that make two searches result-compatible. ``--jobs``
    is deliberately absent: parallelism must not change results."""
    return {
        "strategy": strategy.name,
        "seed": seed,
        "objective": objective,
        "baseline": baseline,
        "scale": scale_factor(),
        "workloads": list(workloads),
        "budget": space.budget,
        "budget_tolerance": space.budget_tolerance,
        "predictor_choices": list(space.predictor_choices),
        "ftq_choices": list(space.ftq_choices),
    }


def run_search(space: DesignSpace, strategy: SearchStrategy,
               budget_evals: int, workloads: Sequence[str], *,
               objective: str = "speedup", baseline: str = "conv32",
               jobs: int = 1, seed: int = 0, cache=None,
               journal: Optional[SearchJournal] = None,
               profiler=None, obs=None, engine=None,
               progress: Optional[ProgressFn] = None) -> SearchOutcome:
    """Run one budget-constrained search to completion.

    Deterministic for a fixed ``(space, strategy, seed, workloads,
    REPRO_SCALE)`` regardless of ``jobs``; with a ``journal``, a killed
    search resumes by replaying the strategy against journaled results
    (zero re-simulation for completed points). ``obs`` (a
    :class:`repro.obs.RunObs` / :class:`~repro.obs.ProgressObs`) wraps
    every generation in a ``genNNN`` span and threads through the sweep
    engine, so a search's span tree nests generation → sweep → pair.
    ``engine`` injects a ready-made engine (the dse CLI's run session
    hands in its persistent local engine, or a
    :class:`repro.service.RemoteEngine` so every generation runs on a
    warm daemon) in place of the local persistent
    ``SweepEngine(jobs=..., profiler=...)`` the search otherwise opens
    and closes; results are identical either way — simulation is
    deterministic and the journal never records who simulated.
    """
    if budget_evals < 1:
        raise ConfigurationError("budget_evals must be positive")
    # The unknown-objective error should fire before any simulation.
    metric, _sense = OBJECTIVES.get(objective, (None, None))
    if metric is None:
        raise ConfigurationError(
            f"unknown objective {objective!r}; choose from "
            f"{sorted(OBJECTIVES)}"
        )
    journaled: Dict[str, dict] = {}
    if journal is not None:
        journaled = journal.ensure_header(
            journal_meta(space, strategy, workloads, seed=seed,
                         objective=objective, baseline=baseline))
    evaluator = Evaluator(space, workloads, baseline=baseline, jobs=jobs,
                          cache=cache, journal=journal, journaled=journaled,
                          profiler=profiler, obs=obs, engine=engine)
    try:
        rng = random.Random(seed)
        outcome = SearchOutcome(strategy=strategy.name, objective=objective)
        records = outcome.records
        generation = 0

        # The default point is always evaluated first so every report can
        # place Table II against the discovered frontier (free when journaled
        # or already in the result cache).
        pending: List[List[DesignPoint]] = [[default_point()]]
        while len(records) < budget_evals:
            batch_points = pending.pop(0) if pending \
                else strategy.propose(records, rng)
            keys = {record.key for record in records}
            batch: List[DesignPoint] = []
            for point in batch_points:
                point = space.canonicalise(point)
                key = point.config_name
                if key in keys:
                    continue
                keys.add(key)
                batch.append(point)
            batch = batch[:budget_evals - len(records)]
            if not batch:
                if pending:
                    continue
                break
            if obs is not None:
                with obs.span(f"gen{generation:03d}", strategy=strategy.name,
                              points=len(batch)):
                    new = evaluator.evaluate(batch)
            else:
                new = evaluator.evaluate(batch)
            records.extend(new)
            if progress is not None:
                progress(generation, new, len(records), budget_evals)
            generation += 1
    finally:
        evaluator.close()
    outcome.generations = generation
    outcome.pairs_simulated = evaluator.pairs_simulated
    outcome.evals_resumed = evaluator.evals_resumed
    if records:
        rows = [(r.metrics["storage_bits"], r.metrics["speedup_geomean"])
                for r in records]
        front = pareto_indices(rows, (MIN, MAX))
        outcome.frontier = sorted(
            (records[i] for i in front),
            key=lambda r: (r.metrics["storage_bits"], r.key))
        outcome.best = min(
            records, key=lambda r: (-objective_score(r, objective), r.key))
        default_key = default_point().config_name
        for record in records:
            if record.key == default_key:
                outcome.default = record
                frontier_rows = [
                    (r.metrics["storage_bits"],
                     r.metrics["speedup_geomean"])
                    for r in outcome.frontier
                ]
                outcome.default_gap = frontier_gap(
                    (record.metrics["storage_bits"],
                     record.metrics["speedup_geomean"]),
                    frontier_rows, (MIN, MAX))
                break
    return outcome
