"""The benchmark's workloads: what each repetition sets up, times and checks.

Every workload runs at :data:`SCALE` (``REPRO_SCALE``): 25k warm-up +
75k measured instructions per trace. One *repetition* is a set-up phase
(timed as ``setup_s``) followed by the timed region (``wall_s``); the
simulated results are then checked against ``fingerprints.json`` outside
both clocks.

* ``solo_sweep`` — three traces whose L1-I footprint is large
  (``server_000``), mid (``client_000``) and small (``spec_000``), each
  run on four L1-I configurations through ``build_machine`` +
  ``Machine.run``. Loads per-trace precompute, the solo cycle loop and
  the L1-I models; bypasses the pool, the result cache and SMT.
* ``smt_corun`` — the same traces as two co-runs on two configurations
  through ``build_smt_machine`` + ``SMTMachine.run``. Loads the SMT loop
  and the same L1-I models; the solo loop is idle.
* ``fill_cold`` — ``SweepEngine(jobs=2).run`` over ``solo_sweep``'s 12
  pairs into an empty ``ResultCache`` with no traces on disk. Puts trace
  synthesis, ``.atrace`` writes, shared-memory publication, pool
  dispatch and result stores on the clock.
* ``dse_resweep`` — ``.atrace`` files for two traces are written in
  set-up; the timed region is a hill-climbing ``run_search`` (jobs 1,
  journal on) of :data:`DSE_EVALS` evaluations into an empty result
  cache. Loads ``.atrace`` reads, ``repro.dse`` and the inline engine;
  no synthesis.

Seeds. ``solo_sweep`` and ``smt_corun`` synthesise each trace with
``SynthesisSpec.seed`` offset by ``VARIANT_STRIDE * (seed % VARIANTS)``,
so a benchmark seed picks one of :data:`VARIANTS` pinned input sets.
``fill_cold`` runs the suite workloads by name (the engine resolves
names, so it cannot take other traces); ``dse_resweep`` uses the same
suite traces and passes the seed to the search, which picks the
neighbours it evaluates.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import smt as smt_pkg
from repro.cpu import machine as machine_mod
from repro.dse import search as search_mod
from repro.dse.journal import SearchJournal
from repro.dse.space import DesignSpace
from repro.experiments.pool import SweepEngine
from repro.experiments.runner import ResultCache
from repro.stats.counters import SimResult
from repro.telemetry import StageProfiler, Telemetry
from repro.trace import synthesis
from repro.trace.arrays import ArrayTrace
from repro.trace.workloads import get_workload, smt_workload

from tracing import ROOT_SETUP, ROOT_TIMED, SpanRecorder

#: REPRO_SCALE every workload runs at (the fingerprints are pinned here).
SCALE = "0.5"
#: Number of pinned seed-derived input sets.
VARIANTS = 8
#: SynthesisSpec.seed offset between consecutive input sets.
VARIANT_STRIDE = 7919

SOLO_TRACES = ("server_000", "client_000", "spec_000")
SOLO_CONFIGS = ("conv32", "ubs", "small16", "distill32")
SMT_RUNS = ("smt:server_000+client_000", "smt:spec_000+client_000")
SMT_CONFIGS = ("conv32", "ubs")
FILL_JOBS = 2
DSE_TRACES = ("server_000", "spec_000")
DSE_CONFIGS = ("conv32", "ubs")
DSE_EVALS = 5
#: The input set the suite workloads (fill_cold, dse_resweep) use.
SUITE = "suite"

ROOT = Path(__file__).resolve().parent.parent


def variant(seed: int) -> str:
    return f"v{seed % VARIANTS}"


def variant_spec(name: str, seed: int):
    spec = get_workload(name).spec
    return replace(spec, seed=spec.seed + VARIANT_STRIDE * (seed % VARIANTS))


def key(trace_set: str, workload: str, config: str) -> str:
    """A fingerprint key: ``<input set>/<workload>::<config>``."""
    return f"{trace_set}/{workload}::{config}"


def stats_of(result: SimResult) -> dict:
    """The simulated statistics a fingerprint pins, per thread for SMT."""
    out = {"cycles": result.cycles, "instructions": result.instructions,
           **asdict(result.frontend)}
    threads = result.extra.get("threads")
    if threads:
        out["threads"] = [{"cycles": t["cycles"],
                           "instructions": t["instructions"], **t["frontend"]}
                          for t in threads]
    return out


def windows(name: str) -> Tuple[int, int]:
    return get_workload(name).windows()


def simulated_instrs(name: str) -> int:
    """Instructions one pair simulates: warm-up + measure, all threads."""
    if name.startswith("smt:"):
        return sum(simulated_instrs(c) for c in smt_workload(name).components)
    return sum(windows(name))


@dataclass
class Rep:
    """One repetition: its two clocks, its results and its own figures."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    instrs: int = 0
    expected: List[str] = field(default_factory=list)
    results: Dict[str, dict] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)


class Context:
    """What a repetition needs: seed, scratch directory, optional spans."""

    def __init__(self, seed: int, workdir: Path, index: int,
                 recorder: Optional[SpanRecorder]) -> None:
        self.seed = seed
        self.workdir = workdir / f"rep{index}"
        self.workdir.mkdir(parents=True)
        self.recorder = recorder

    def root(self, name: str):
        """A root span around a phase, when this repetition is traced."""
        if self.recorder is None:
            return nullcontext()
        return self.recorder.tracer.span(name)


def _try_pair(rep: Rep, pair_key: str, fn: Callable[[], SimResult]) -> None:
    try:
        rep.results[pair_key] = stats_of(fn())
    except Exception as exc:     # a failed pair is counted, not fatal
        rep.errors.append(f"{pair_key}: {type(exc).__name__}: {exc}")


def synthesise(names: Sequence[str], seed: int) -> Dict[str, ArrayTrace]:
    traces = {}
    for name in names:
        instructions = synthesis.generate_trace(variant_spec(name, seed),
                                                sum(windows(name)))
        traces[name] = ArrayTrace.from_instructions(instructions)
    return traces


# -- the four workloads ---------------------------------------------------------


def solo_sweep(ctx: Context) -> Rep:
    rep = Rep()
    vset = variant(ctx.seed)
    t0 = perf_counter()
    with ctx.root(ROOT_SETUP):
        traces = synthesise(SOLO_TRACES, ctx.seed)
    t1 = perf_counter()
    with ctx.root(ROOT_TIMED):
        for name, trace in traces.items():
            warmup, measure = windows(name)
            for config in SOLO_CONFIGS:
                _try_pair(rep, key(vset, name, config),
                          lambda: machine_mod.build_machine(
                              trace, config).run(warmup, measure))
    t2 = perf_counter()
    rep.setup_s, rep.wall_s = t1 - t0, t2 - t1
    rep.expected = [key(vset, n, c) for n in SOLO_TRACES for c in SOLO_CONFIGS]
    rep.instrs = sum(simulated_instrs(n) for n in SOLO_TRACES) \
        * len(SOLO_CONFIGS)
    return rep


def smt_corun(ctx: Context) -> Rep:
    rep = Rep()
    vset = variant(ctx.seed)
    t0 = perf_counter()
    with ctx.root(ROOT_SETUP):
        traces = synthesise(SOLO_TRACES, ctx.seed)
    t1 = perf_counter()
    with ctx.root(ROOT_TIMED):
        for run in SMT_RUNS:
            components = smt_workload(run).components
            for config in SMT_CONFIGS:
                _try_pair(rep, key(vset, run, config),
                          lambda: smt_pkg.build_smt_machine(
                              [traces[c] for c in components], config).run(
                              [windows(c) for c in components]))
    t2 = perf_counter()
    rep.setup_s, rep.wall_s = t1 - t0, t2 - t1
    rep.expected = [key(vset, r, c) for r in SMT_RUNS for c in SMT_CONFIGS]
    rep.instrs = sum(simulated_instrs(r) for r in SMT_RUNS) \
        * len(SMT_CONFIGS)
    return rep


def fill_cold(ctx: Context) -> Rep:
    rep = Rep()
    pairs = [(n, c) for n in SOLO_TRACES for c in SOLO_CONFIGS]
    # No synthesis may precede this fill, so set-up is what a command-line
    # user waits for before a fill starts: one fresh interpreter importing
    # the sweep engine, then an empty result cache.
    t0 = perf_counter()
    with ctx.root(ROOT_SETUP):
        subprocess.run([sys.executable, "-c", "import repro.experiments.pool"],
                       check=True, cwd=ROOT,
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        cache = ResultCache(ctx.workdir / "cache")
    t1 = perf_counter()
    profiler = StageProfiler()
    results: Dict[Tuple[str, str], SimResult] = {}
    with ctx.root(ROOT_TIMED):
        try:
            engine = SweepEngine(jobs=FILL_JOBS, cache=cache,
                                 profiler=profiler)
            results = engine.run(pairs)
        except Exception as exc:
            rep.errors.append(f"fill: {type(exc).__name__}: {exc}")
    t2 = perf_counter()
    rep.setup_s, rep.wall_s = t1 - t0, t2 - t1
    rep.expected = [key(SUITE, n, c) for n, c in pairs]
    rep.results = {key(SUITE, n, c): stats_of(r)
                   for (n, c), r in results.items()}
    rep.instrs = sum(simulated_instrs(n) for n, _c in pairs)
    rep.layer = _engine_figures(profiler, cache, results, FILL_JOBS,
                                rep.wall_s)
    return rep


def dse_resweep(ctx: Context) -> Rep:
    rep = Rep()
    t0 = perf_counter()
    with ctx.root(ROOT_SETUP):
        cache = ResultCache(ctx.workdir / "cache")
        for name in DSE_TRACES:
            # Generates the suite trace and writes its .atrace file.
            cache.array_trace_for(get_workload(name))
    t1 = perf_counter()
    profiler = StageProfiler()
    outcome = None
    with ctx.root(ROOT_TIMED):
        try:
            space = DesignSpace()
            outcome = search_mod.run_search(
                space, search_mod.HillClimb(space), DSE_EVALS, DSE_TRACES,
                jobs=1, seed=ctx.seed, cache=cache,
                journal=SearchJournal(ctx.workdir / "journal.jsonl"),
                profiler=profiler)
        except Exception as exc:
            rep.errors.append(f"search: {type(exc).__name__}: {exc}")
    t2 = perf_counter()
    rep.setup_s, rep.wall_s = t1 - t0, t2 - t1
    configs = ["conv32"] + (
        [r.key for r in outcome.records] if outcome else list(DSE_CONFIGS))
    rep.expected = [key(SUITE, n, c) for n in DSE_TRACES for c in configs]
    if outcome is None:
        return rep
    # The search keeps only summaries; its full results are the ones it
    # stored in the (initially empty) cache. A journal row that disagrees
    # with its stored result fails that pair.
    rows = {(name, record.key): row["cycles"] for record in outcome.records
            for name, row in record.per_workload.items()}
    results = {}
    for name in DSE_TRACES:
        for config in configs:
            result = cache.load(name, config, count=False)
            if result is None:
                continue
            if rows.get((name, config), result.cycles) != result.cycles:
                rep.errors.append(f"{name}::{config}: journal row "
                                  "disagrees with the stored result")
                continue
            results[(name, config)] = result
            rep.results[key(SUITE, name, config)] = stats_of(result)
    rep.instrs = sum(simulated_instrs(n) for n, _c in results)
    rep.layer = _engine_figures(profiler, cache, results, 1, rep.wall_s)
    evals = len(outcome.records)
    rep.layer["dse.evals"] = float(evals)
    rep.layer["dse.pairs_per_eval"] = outcome.pairs_simulated / evals \
        if evals else 0.0
    return rep


def _engine_figures(profiler: StageProfiler, cache: ResultCache,
                    results: Dict[Tuple[str, str], SimResult], jobs: int,
                    wall: float) -> Dict[str, float]:
    """Figures the sweep engine already keeps: its profiler stages,
    the cache counters and the busy share of its workers."""
    busy = sum(r.extra.get("sim_wall_seconds", 0.0) for r in results.values())
    stages = profiler.stage_seconds
    return {
        "pool.wait_s": stages.get("wait", 0.0),
        "pool.publish_s": stages.get("publish", 0.0),
        "pool.busy_share": busy / (jobs * wall) if wall else 0.0,
        "result_cache.hits": float(cache.counters["hits"]),
        "result_cache.misses": float(cache.counters["misses"]),
        "result_cache.stores": float(cache.counters["stores"]),
    }


WORKLOADS: Dict[str, Callable[[Context], Rep]] = {
    "solo_sweep": solo_sweep,
    "smt_corun": smt_corun,
    "fill_cold": fill_cold,
    "dse_resweep": dse_resweep,
}


# -- calibration of the stage profiler (traced runs only) ---------------------


def calibration_pairs(workload: str, seed: int
                      ) -> Tuple[str, str, List[str]]:
    """(input set, trace, configs) the profiler calibration runs on:
    the workload's large-footprint trace on its solo configurations.
    ``SMTMachine`` has no stage hooks, so ``smt_corun`` has none."""
    if workload == "solo_sweep":
        return variant(seed), "server_000", list(SOLO_CONFIGS)
    if workload == "fill_cold":
        return SUITE, "server_000", list(SOLO_CONFIGS)
    if workload == "dse_resweep":
        return SUITE, "server_000", list(DSE_CONFIGS)
    return "", "", []


def calibrate(workload: str, seed: int, rep: Rep,
              fingerprints: Dict[str, dict]) -> Tuple[int, int]:
    """Time the same pairs with and without the ``StageProfiler`` wrappers,
    and take the cycle-loop stage times from the wrapped runs. Every run
    is also checked against its pin; returns ``(attempted, failed)``."""
    trace_set, name, configs = calibration_pairs(workload, seed)
    if not configs:
        return 0, 0
    if trace_set == SUITE:
        spec = get_workload(name).spec
    else:
        spec = variant_spec(name, seed)
    warmup, measure = windows(name)
    trace = ArrayTrace.from_instructions(
        synthesis.generate_trace(spec, warmup + measure))
    unwrapped = wrapped = 0.0
    stages: Dict[str, float] = {}
    attempted = failed = 0
    for config in configs:
        pair_key = key(trace_set, name, config)
        for profiled in (False, True):
            attempted += 1
            profiler = StageProfiler() if profiled else None
            machine = machine_mod.build_machine(
                trace, config, telemetry=Telemetry(profiler=profiler))
            t0 = perf_counter()
            try:
                result = machine.run(warmup, measure)
            except Exception as exc:
                failed += 1
                rep.errors.append(f"calibration {pair_key}: "
                                  f"{type(exc).__name__}: {exc}")
                continue
            elapsed = perf_counter() - t0
            if stats_of(result) != fingerprints.get(pair_key):
                failed += 1
                rep.errors.append(f"calibration {pair_key}: result "
                                  "differs from its pin")
            if profiler is None:
                unwrapped += elapsed
            else:
                wrapped += elapsed
                for stage, seconds in profiler.stage_seconds.items():
                    stages[stage] = stages.get(stage, 0.0) + seconds
    for stage in ("fills", "bpu", "fdip", "fetch", "backend"):
        rep.layer[f"stage.{stage}_s"] = stages.get(stage, 0.0)
    rep.layer["stage.calib_unwrapped_s"] = unwrapped
    rep.layer["stage.calib_wrapped_s"] = wrapped
    rep.layer["stage.profiler_overhead"] = \
        wrapped / unwrapped - 1.0 if unwrapped else 0.0
    return attempted, failed


# -- output check and model counters ----------------------------------------------


def check(rep: Rep, fingerprints: Dict[str, dict]) -> Tuple[int, int]:
    """Compare every expected pair with its pinned statistics; returns
    ``(attempted, failed)``. Missing results and exceptions count as
    failed operations."""
    failed = 0
    for pair_key in rep.expected:
        stats = rep.results.get(pair_key)
        pinned = fingerprints.get(pair_key)
        if stats is None or pinned is None or stats != pinned:
            failed += 1
            why = "missing" if stats is None else \
                "not pinned" if pinned is None else "differs from its pin"
            rep.errors.append(f"{pair_key}: result {why}")
    return len(rep.expected), failed


def model_counters(rep: Rep, fingerprints: Dict[str, dict]
                   ) -> Dict[str, float]:
    """Simulated-time figures of the pairs a repetition produced. They are
    exact: a performance change must leave every one of them unmoved."""
    out: Dict[str, float] = {}
    rows = list(rep.results.items())

    def split(pair_key: str) -> Tuple[str, str, str]:
        trace_set, rest = pair_key.split("/", 1)
        workload, config = rest.split("::")
        return trace_set, workload, config

    for config in SOLO_CONFIGS:
        mine = [s for k, s in rows if split(k)[2] == config]
        instrs = sum(s["instructions"] for s in mine)
        cycles = sum(s["cycles"] for s in mine)
        out[f"model.ipc.{config}"] = instrs / cycles if cycles else 0.0
        out[f"model.l1i_mpki.{config}"] = \
            sum(s["l1i_misses"] for s in mine) / instrs * 1e3 if instrs \
            else 0.0
        out[f"model.fetch_stall_cycles.{config}"] = \
            float(sum(s["fetch_stall_cycles"] for s in mine))
    out["model.partial_misses.ubs"] = float(sum(
        s["l1i_partial_missing"] + s["l1i_partial_overrun"]
        + s["l1i_partial_underrun"]
        for k, s in rows if split(k)[2] == "ubs"))
    by_pair = {split(k): s for k, s in rows}
    ratios = [(by_pair[(t, w, "ubs")]["instructions"]
               / by_pair[(t, w, "ubs")]["cycles"])
              / (s["instructions"] / s["cycles"])
              for (t, w, c), s in by_pair.items()
              if c == "conv32" and (t, w, "ubs") in by_pair]
    out["model.ubs_speedup"] = \
        math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else 0.0
    for config in SMT_CONFIGS:
        slowdowns = []
        for (t, w, c), s in by_pair.items():
            if c != config or "threads" not in s:
                continue
            for comp, thread in zip(smt_workload(w).components, s["threads"]):
                solo = fingerprints.get(key(t, comp, config))
                if solo is not None:
                    slowdowns.append(
                        (solo["instructions"] / solo["cycles"])
                        / (thread["instructions"] / thread["cycles"]))
        out[f"model.smt_slowdown.{config}"] = \
            sum(slowdowns) / len(slowdowns) if slowdowns else 0.0
    return out


def clean(ctx: Context) -> None:
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    gc.collect()


def stop_helpers() -> None:
    """Stop the processes ``multiprocessing`` starts behind the caller's
    back and otherwise leaves to outlive it, and wait for each: any pool
    worker still alive, and the resource tracker that the first
    shared-memory trace segment starts (it would exit only after this
    interpreter has)."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()
