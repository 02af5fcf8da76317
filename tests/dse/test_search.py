"""Search-strategy and evaluation-loop tests.

These run the real simulation pipeline at REPRO_SCALE=0.02 on one small
workload with a private result cache, like the experiment-driver tests:
absolute numbers do not matter, but evaluation, journaling, resume and
determinism must behave exactly.
"""

import concurrent.futures
import random
from collections import Counter

import pytest

from repro.dse import (
    DesignSpace,
    GridSearch,
    HillClimb,
    RandomSearch,
    SearchJournal,
    default_point,
    make_strategy,
    objective_score,
    run_search,
)
from repro.cpu import machine as machine_mod
from repro.errors import ConfigurationError
from repro.experiments.runner import ResultCache
from repro.telemetry import StageProfiler

WORKLOADS = ["server_000"]


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.02")


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One on-disk cache for the whole module, so repeat evaluations of
    the same (workload, config) pair only ever simulate once."""
    return ResultCache(tmp_path_factory.mktemp("dse_cache"))


class TestStrategies:
    def test_make_strategy_names(self):
        space = DesignSpace()
        for name in ("grid", "random", "hill"):
            assert make_strategy(name, space).name == name
        with pytest.raises(ConfigurationError):
            make_strategy("annealing", space)

    def test_grid_emits_once(self):
        space = DesignSpace()
        strategy = GridSearch(space)
        rng = random.Random(0)
        first = strategy.propose([], rng)
        assert first == space.grid()
        assert strategy.propose([], rng) == []

    def test_random_dedups_against_history(self):
        space = DesignSpace()
        strategy = RandomSearch(space, batch_size=6)
        rng = random.Random(1)
        batch = strategy.propose([], rng)
        assert 0 < len(batch) <= 6
        keys = [p.config_name for p in batch]
        assert len(keys) == len(set(keys))

    def test_random_rejects_bad_batch_size(self):
        with pytest.raises(ConfigurationError):
            RandomSearch(DesignSpace(), batch_size=0)

    def test_hill_starts_from_default(self):
        strategy = HillClimb(DesignSpace())
        assert strategy.propose([], random.Random(0)) == [default_point()]


class TestRunSearch:
    def test_unknown_objective_fails_fast(self, shared_cache):
        space = DesignSpace()
        with pytest.raises(ConfigurationError, match="objective"):
            run_search(space, make_strategy("random", space), 2, WORKLOADS,
                       objective="latency", cache=shared_cache)

    def test_default_point_evaluated_first(self, shared_cache):
        space = DesignSpace()
        outcome = run_search(space, make_strategy("random", space), 3,
                             WORKLOADS, seed=2, cache=shared_cache)
        assert len(outcome.records) == 3
        assert outcome.records[0].key == "ubs"
        assert outcome.default is not None
        assert outcome.best is not None
        assert outcome.frontier
        assert outcome.best.key in {r.key for r in outcome.records}

    def test_profiler_times_the_engine_stages(self, shared_cache):
        """A profiler handed to the search reaches its local sweep engine,
        which charges its cache scan once per generation."""
        space = DesignSpace()
        prof = StageProfiler()
        outcome = run_search(space, HillClimb(space, max_neighbors=2), 4,
                             WORKLOADS, seed=0, cache=shared_cache,
                             profiler=prof)
        assert outcome.generations >= 2
        assert prof.stage_calls["scan"] == outcome.generations
        assert not any(stage.startswith("dse.")
                       for stage in prof.stage_calls)

    def test_hill_climbs_neighbourhood(self, shared_cache):
        space = DesignSpace()
        outcome = run_search(space, HillClimb(space, max_neighbors=2), 4,
                             WORKLOADS, seed=0, cache=shared_cache)
        assert outcome.records[0].key == "ubs"
        assert 2 <= len(outcome.records) <= 4
        assert outcome.generations >= 2

    def test_ranked_is_best_first(self, shared_cache):
        space = DesignSpace()
        outcome = run_search(space, make_strategy("random", space), 3,
                             WORKLOADS, seed=2, cache=shared_cache)
        scores = [objective_score(r, outcome.objective)
                  for r in outcome.ranked()]
        assert scores == sorted(scores, reverse=True)


class TestEngineReuse:
    """Without an injected engine a search opens one persistent engine,
    so later generations reuse its trace memo and its pool."""

    def test_inline_search_reads_and_walks_each_trace_once(
            self, tmp_path, monkeypatch):
        reads = Counter()
        walks = []
        read = ResultCache.array_trace_for
        walk = machine_mod.precompute_range_stream

        def counting_read(cache, workload):
            reads[workload.name] += 1
            return read(cache, workload)

        def counting_walk(trace, bpu):
            walks.append(len(trace))
            return walk(trace, bpu)

        monkeypatch.setattr(ResultCache, "array_trace_for", counting_read)
        monkeypatch.setattr(machine_mod, "precompute_range_stream",
                            counting_walk)
        space = DesignSpace()
        outcome = run_search(space, RandomSearch(space, batch_size=2), 5,
                             ["server_000", "spec_000"], seed=0,
                             cache=ResultCache(tmp_path))
        assert outcome.generations == 3
        assert reads == {"server_000": 1, "spec_000": 1}
        assert len(walks) == 2

    def test_parallel_search_starts_one_pool(self, tmp_path, monkeypatch):
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
        space = DesignSpace()
        outcome = run_search(space, RandomSearch(space, batch_size=1), 3,
                             WORKLOADS, jobs=2, seed=0,
                             cache=ResultCache(tmp_path))
        assert outcome.generations == 3
        assert len(pools) == 1


class TestResume:
    def test_journal_replay_skips_simulation(self, shared_cache, tmp_path,
                                             tmp_path_factory):
        space = DesignSpace()
        journal = SearchJournal(tmp_path / "journal.jsonl")
        first = run_search(space, make_strategy("random", space), 3,
                           WORKLOADS, seed=4, cache=shared_cache,
                           journal=journal)
        assert first.evals_resumed == 0

        # Resume with an *empty* result cache: everything must come from
        # the journal, not from cached simulation results.
        cold = ResultCache(tmp_path_factory.mktemp("cold"))
        second = run_search(space, make_strategy("random", space), 3,
                            WORKLOADS, seed=4, cache=cold, journal=journal)
        assert second.evals_resumed == 3
        assert second.pairs_simulated == 0
        assert [r.key for r in second.records] == \
            [r.key for r in first.records]
        assert [r.metrics for r in second.records] == \
            [r.metrics for r in first.records]

    def test_resume_with_different_seed_refuses(self, shared_cache,
                                                tmp_path):
        from repro.errors import JournalError

        space = DesignSpace()
        journal = SearchJournal(tmp_path / "journal.jsonl")
        run_search(space, make_strategy("random", space), 2, WORKLOADS,
                   seed=4, cache=shared_cache, journal=journal)
        with pytest.raises(JournalError, match="seed"):
            run_search(space, make_strategy("random", space), 2, WORKLOADS,
                       seed=5, cache=shared_cache, journal=journal)

    def test_budget_extension_continues_search(self, shared_cache,
                                               tmp_path):
        space = DesignSpace()
        journal = SearchJournal(tmp_path / "journal.jsonl")
        run_search(space, make_strategy("random", space), 2, WORKLOADS,
                   seed=4, cache=shared_cache, journal=journal)
        bigger = run_search(space, make_strategy("random", space), 4,
                            WORKLOADS, seed=4, cache=shared_cache,
                            journal=journal)
        assert len(bigger.records) == 4
        assert bigger.evals_resumed == 2
