#!/usr/bin/env python
"""Performance gate: measure simulator throughput and fail on regressions.

Times a pinned set of (workload, L1-I configuration) pairs with the real
:class:`~repro.cpu.machine.Machine` (no result cache, traces generated
in-process and reused across configurations and repeats), then writes a
``BENCH_<date>.json`` snapshot and compares it against a baseline:

* the file given with ``--baseline``, or
* the newest other ``BENCH_*.json`` at the repo root **of a comparable
  suite** — suites time different pair sets, so each lane only compares
  like-for-like: ``smoke`` falls back to the ``full`` lane (a superset
  of its pairs), ``full`` and ``smt`` only to themselves — or
* ``benchmarks/perf/baseline.json`` (the frozen pre-optimization
  baseline recorded before PR 3's hot-path work; never used for the
  ``smt`` lane, which it predates).

The ``smt`` suite times SMT co-run pairs (``smt:A+B`` workloads through
:class:`repro.smt.SMTMachine` — two hardware threads sharing the front
end) in their own suite-tagged lane, so ``repro.obs regress`` trends
them separately from the single-thread suites.

The headline metric is the geometric mean of simulated cycles per host
second across all pairs. The gate fails (exit 1) when that geomean drops
below ``(1 - tolerance)`` times the baseline's; it reports — but never
fails on — speedups.

Usage::

    python tools/perfgate.py --smoke              # quick pinned smoke set
    python tools/perfgate.py                      # full pinned suite
    python tools/perfgate.py --suite smt          # SMT co-run lane
    python tools/perfgate.py --smoke --tolerance 0.5   # lenient (CI)
    python tools/perfgate.py --smoke --out /tmp/bench.json --no-compare

Results depend on the host, so committed BENCH files are a trajectory of
one reference machine; CI should use a generous ``--tolerance``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Every pinned pair runs at this REPRO_SCALE (overrides the environment
#: so a stray setting cannot skew the trajectory).
PINNED_SCALE = "0.25"

#: The quick gate: one front-end-bound server workload, both headline
#: configurations.
SMOKE_PAIRS: List[Tuple[str, str]] = [
    ("server_000", "conv32"),
    ("server_000", "ubs"),
]

#: The full gate adds a loopy SPEC-like workload and the main baselines.
FULL_PAIRS: List[Tuple[str, str]] = SMOKE_PAIRS + [
    ("server_000", "small16"),
    ("server_000", "distill32"),
    ("spec_000", "conv32"),
    ("spec_000", "ubs"),
]

#: The SMT lane: one co-run pair (two threads through the shared front
#: end) on both headline configurations. Its throughput is not
#: comparable to the single-thread suites — a cycle advances two
#: architectural streams — hence the separate suite tag.
SMT_PAIRS: List[Tuple[str, str]] = [
    ("smt:server_000+client_000", "conv32"),
    ("smt:server_000+client_000", "ubs"),
]

SUITES: Dict[str, List[Tuple[str, str]]] = {
    "smoke": SMOKE_PAIRS,
    "full": FULL_PAIRS,
    "smt": SMT_PAIRS,
}

#: Which lanes a suite may take its baseline from, in preference order.
#: ``smoke`` pairs are a subset of ``full``'s, so that fallback stays
#: meaningful; nothing else crosses lanes.
BASELINE_LANES: Dict[str, Tuple[str, ...]] = {
    "smoke": ("smoke", "full"),
    "full": ("full",),
    "smt": ("smt",),
}

SCHEMA_VERSION = 1


def _null_span(*_a, **_k):
    import contextlib

    return contextlib.nullcontext()


def _measure_smt_pair(workload_name: str, config: str, traces,
                      repeats: int) -> Dict[str, float]:
    """Best-of-``repeats`` timing of one SMT co-run (``smt:A+B``) pair.

    ``traces`` is the list of component ArrayTraces in thread order.
    ``sim_cycles`` is the shared core's cycle counter — one cycle
    advances every hardware thread — so the throughput metric stays
    cycles-of-the-one-core per host second, same as the solo suites.
    """
    from repro.smt import build_smt_machine
    from repro.trace.workloads import get_workload

    wl = get_workload(workload_name)
    windows = [c.windows() for c in wl.component_workloads()]
    instructions = sum(w + m for w, m in windows)
    best: Optional[Dict[str, float]] = None
    for _ in range(repeats):
        machine = build_smt_machine(list(traces), config, policy=wl.policy)
        t0 = perf_counter()
        result = machine.run(windows)
        wall = perf_counter() - t0
        sample = {
            "workload": workload_name,
            "config": config,
            "instructions": instructions,
            "sim_cycles": machine.cycle,
            "result_cycles": result.cycles,
            "wall_seconds": round(wall, 6),
            "cycles_per_sec": round(machine.cycle / wall, 1),
            "instrs_per_sec": round(instructions / wall, 1),
        }
        if best is None or sample["wall_seconds"] < best["wall_seconds"]:
            best = sample
    assert best is not None
    return best


def _measure_pair(workload_name: str, config: str, trace,
                  repeats: int) -> Dict[str, float]:
    """Best-of-``repeats`` timing of one (workload, config) simulation."""
    from repro.cpu.machine import Machine, build_icache
    from repro.trace.workloads import get_workload, is_smt_workload

    if is_smt_workload(workload_name):
        return _measure_smt_pair(workload_name, config, trace, repeats)
    wl = get_workload(workload_name)
    warmup, measure = wl.windows()
    best: Optional[Dict[str, float]] = None
    for _ in range(repeats):
        machine = Machine(trace, build_icache(config))
        t0 = perf_counter()
        result = machine.run(warmup, measure)
        wall = perf_counter() - t0
        sample = {
            "workload": workload_name,
            "config": config,
            "instructions": warmup + measure,
            "sim_cycles": machine.cycle,
            "result_cycles": result.cycles,
            "wall_seconds": round(wall, 6),
            "cycles_per_sec": round(machine.cycle / wall, 1),
            "instrs_per_sec": round((warmup + measure) / wall, 1),
        }
        if best is None or sample["wall_seconds"] < best["wall_seconds"]:
            best = sample
    assert best is not None
    return best


def run_suite(pairs: List[Tuple[str, str]], repeats: int,
              obs=None) -> Dict:
    """Time every pair; traces are generated once per workload.

    Traces are handed to the machine in the columnar (ArrayTrace) form —
    the representation every production path (run_all fills, the sweep
    engine, DSE) simulates with — so the gate times the vectorized
    kernel, not the object-list compatibility path.
    """
    from repro.trace.arrays import ArrayTrace
    from repro.trace.workloads import get_workload, is_smt_workload

    span = obs.span if obs is not None else _null_span
    solo_traces: Dict[str, ArrayTrace] = {}

    def _trace(name: str) -> ArrayTrace:
        if name not in solo_traces:
            solo_traces[name] = get_workload(name).generate()
        return solo_traces[name]

    traces: Dict[str, object] = {}
    results: List[Dict[str, float]] = []
    for workload_name, config in pairs:
        if workload_name not in traces:
            if is_smt_workload(workload_name):
                # One ArrayTrace per hardware thread, components shared
                # with any solo pairs timing the same workload.
                traces[workload_name] = [
                    _trace(c)
                    for c in get_workload(workload_name).components
                ]
            else:
                traces[workload_name] = _trace(workload_name)
        print(f"  timing {workload_name} x {config} ...",
              end=" ", flush=True)
        with span("measure", key=f"{workload_name}::{config}",
                  repeats=repeats):
            sample = _measure_pair(workload_name, config,
                                   traces[workload_name], repeats)
        print(f"{sample['cycles_per_sec']:,.0f} cycles/s "
              f"({sample['wall_seconds']:.3f}s)")
        results.append(sample)

    rates = [r["cycles_per_sec"] for r in results]
    geomean = math.exp(sum(math.log(r) for r in rates) / len(rates))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "schema_version": SCHEMA_VERSION,
        "date": datetime.date.today().isoformat(),
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
            "cpus": os.cpu_count(),
        },
        "repro_scale": float(PINNED_SCALE),
        "repeats": repeats,
        "peak_rss_kb": peak_rss_kb,
        "results": results,
        "geomean_cycles_per_sec": round(geomean, 1),
    }


def measure_fill(pairs: List[Tuple[str, str]],
                 jobs_list: List[int], obs=None) -> List[Dict]:
    """Time cold sweep-engine fills of ``pairs`` at each worker count.

    Every fill starts from an empty throwaway cache (so trace
    generation, scheduling and shared-memory fan-out are all on the
    clock) and is instrumented with a StageProfiler; the samples feed
    the ``fill_pairs_per_min`` campaign-throughput metric.
    """
    import shutil
    import tempfile

    from repro.experiments.pool import SweepEngine
    from repro.experiments.runner import ResultCache
    from repro.telemetry.profiler import StageProfiler

    span = obs.span if obs is not None else _null_span
    samples: List[Dict] = []
    for jobs in jobs_list:
        root = Path(tempfile.mkdtemp(prefix="perfgate_fill_"))
        try:
            profiler = StageProfiler()
            engine = SweepEngine(jobs=jobs, cache=ResultCache(root),
                                 profiler=profiler, obs=obs)
            print(f"  filling {len(pairs)} pairs with --jobs {jobs} ...",
                  end=" ", flush=True)
            with span("fill", jobs=jobs, pairs=len(pairs)):
                engine.run(pairs)
            print(f"{engine.fill_seconds:.2f}s "
                  f"({engine.pairs_per_min:.1f} pairs/min)")
            samples.append({
                "jobs": jobs,
                "pairs": engine.pairs_simulated,
                "fill_seconds": round(engine.fill_seconds, 3),
                "fill_pairs_per_min": round(engine.pairs_per_min, 1),
                "stage_seconds": {
                    k: round(v, 3)
                    for k, v in profiler.stage_seconds.items()
                },
            })
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return samples


def measure_service_fill(pairs: List[Tuple[str, str]],
                         jobs: int, obs=None) -> Dict:
    """Time one cold fill routed through an in-process daemon.

    Spins up a :class:`repro.service.ServiceServer` on a throwaway unix
    socket with a fresh cache, submits ``pairs`` through a
    :class:`~repro.service.RemoteEngine` and tears everything down. The
    delta against the same-``jobs`` local fill is the service's protocol
    + scheduling overhead; recorded for the trajectory, never gated
    (daemon wins come from *warm* reuse, which a cold one-shot
    deliberately cannot show).
    """
    import shutil
    import tempfile

    from repro.experiments.runner import ResultCache
    from repro.service import RemoteEngine, ServiceServer

    span = obs.span if obs is not None else _null_span
    root = Path(tempfile.mkdtemp(prefix="perfgate_svc_"))
    try:
        server = ServiceServer(f"unix:{root / 'svc.sock'}", jobs=jobs,
                               cache=ResultCache(root / "cache"),
                               state_dir=str(root / "state"))
        server.start()
        print(f"  filling {len(pairs)} pairs via daemon "
              f"(--jobs {jobs}) ...", end=" ", flush=True)
        try:
            engine = RemoteEngine(f"unix:{root / 'svc.sock'}")
            with span("service_fill", jobs=jobs, pairs=len(pairs)):
                engine.run(pairs)
            engine.close()
        finally:
            server.close()
        print(f"{engine.fill_seconds:.2f}s "
              f"({engine.pairs_per_min:.1f} pairs/min)")
        return {
            "jobs": jobs,
            "pairs": engine.pairs_simulated,
            "fill_seconds": round(engine.fill_seconds, 3),
            "fill_pairs_per_min": round(engine.pairs_per_min, 1),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def find_baseline(out_path: Path, explicit: Optional[str],
                  suite: str = "full") -> Optional[Path]:
    """Resolve the comparison baseline for a ``suite`` run.

    Explicit ``--baseline`` always wins. Otherwise take the newest
    committed ``BENCH_*.json`` from the first lane in
    ``BASELINE_LANES[suite]`` that has one, so lanes only ever compare
    like-for-like (the PR 7 "unknown lane" rule in ``repro.obs
    regress``, applied to the gate itself). The frozen pre-optimization
    baseline is the last resort for the single-thread lanes; the ``smt``
    lane predates nothing, so its first snapshot simply skips the gate.
    """
    if explicit:
        return Path(explicit)
    benches = sorted(
        p for p in REPO_ROOT.glob("BENCH_*.json") if p != out_path
    )
    by_suite: Dict[str, List[Path]] = {}
    for p in benches:
        try:
            tag = json.loads(p.read_text()).get("suite", "unknown")
        except (OSError, ValueError):
            continue
        by_suite.setdefault(tag, []).append(p)
    for lane in BASELINE_LANES.get(suite, (suite,)):
        if by_suite.get(lane):
            return by_suite[lane][-1]
    if suite != "smt":
        frozen = REPO_ROOT / "benchmarks" / "perf" / "baseline.json"
        if frozen.exists():
            return frozen
    return None


def compare(current: Dict, baseline: Dict, tolerance: float) -> int:
    """Print the per-pair and aggregate deltas; return the exit code."""
    base_by_pair = {
        (r["workload"], r["config"]): r for r in baseline["results"]
    }
    print("\nvs baseline "
          f"({baseline.get('date', '?')}, "
          f"geomean {baseline['geomean_cycles_per_sec']:,.0f} cycles/s):")
    for r in current["results"]:
        b = base_by_pair.get((r["workload"], r["config"]))
        if b is None:
            print(f"  {r['workload']} x {r['config']}: (new pair)")
            continue
        ratio = r["cycles_per_sec"] / b["cycles_per_sec"]
        print(f"  {r['workload']} x {r['config']}: {ratio:.2f}x "
              f"({b['cycles_per_sec']:,.0f} -> "
              f"{r['cycles_per_sec']:,.0f} cycles/s)")
    ratio = (current["geomean_cycles_per_sec"]
             / baseline["geomean_cycles_per_sec"])
    print(f"  geomean: {ratio:.2f}x")
    if ratio < 1.0 - tolerance:
        print(f"PERF GATE FAILED: geomean regressed to {ratio:.2f}x "
              f"(tolerance {tolerance:.0%})")
        return 1
    print("perf gate ok")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run only the quick pinned smoke pairs "
                             "(shorthand for --suite smoke)")
    parser.add_argument("--suite", choices=sorted(SUITES), default=None,
                        help="pinned pair set to time; each suite is its "
                             "own baseline lane (default: full)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per pair (best is kept)")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional geomean regression")
    parser.add_argument("--out", type=Path, default=None,
                        help="output JSON (default: BENCH_<date>.json "
                             "at the repo root)")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to compare against")
    parser.add_argument("--no-compare", action="store_true",
                        help="measure and write only; skip the gate")
    parser.add_argument("--fill-jobs", default="1,2", metavar="LIST",
                        help="comma-separated worker counts for the "
                             "sweep-engine fill measurement (default: "
                             "'1,2'; empty string skips it)")
    parser.add_argument("--service-fill", action="store_true",
                        help="also time a cold fill routed through an "
                             "in-process simulation daemon (records the "
                             "service overhead; informational, never "
                             "gated)")
    parser.add_argument("--obs-dir", default=None, metavar="DIR",
                        help="record this gate run (span trace, manifest, "
                             "a copy of the BENCH snapshot under bench/) "
                             "into DIR; defaults to $REPRO_OBS_DIR")
    args = parser.parse_args(argv)

    os.environ["REPRO_SCALE"] = PINNED_SCALE
    label = args.suite or ("smoke" if args.smoke else "full")
    pairs = SUITES[label]

    from repro.obs import RunObs, resolve_obs_dir

    obs = None
    obs_dir = resolve_obs_dir(args.obs_dir)
    if obs_dir is not None:
        obs = RunObs.create(
            obs_dir, "perfgate", argv=["perfgate"] + list(argv or []),
            config={"suite": label, "repeats": args.repeats,
                    "tolerance": args.tolerance,
                    "fill_jobs": args.fill_jobs},
            live=False)

    print(f"perfgate: {label} suite, {len(pairs)} pairs, "
          f"REPRO_SCALE={PINNED_SCALE}, best of {args.repeats}")
    report = run_suite(pairs, args.repeats, obs=obs)
    report["suite"] = label

    fill_jobs = [int(j) for j in args.fill_jobs.split(",") if j.strip()]
    if fill_jobs:
        print(f"fill throughput (cold cache, jobs {fill_jobs}):")
        report["fill"] = measure_fill(pairs, fill_jobs, obs=obs)
        # Headline campaign-throughput metric: the best fill observed.
        report["fill_pairs_per_min"] = max(
            s["fill_pairs_per_min"] for s in report["fill"]
        )
    if args.service_fill:
        jobs = fill_jobs[-1] if fill_jobs else 1
        print("fill throughput via the simulation daemon "
              "(cold cache):")
        report["service"] = measure_service_fill(pairs, jobs, obs=obs)

    out_path = args.out
    if out_path is None:
        # Suite-qualified for the non-default lanes so a same-day run of
        # two suites never overwrites one snapshot with the other.
        stem = f"BENCH_{report['date']}"
        if label != "full":
            stem += f"_{label}"
        out_path = REPO_ROOT / f"{stem}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\ngeomean {report['geomean_cycles_per_sec']:,.0f} cycles/s, "
          f"peak RSS {report['peak_rss_kb'] / 1024:.0f} MB")
    print(f"wrote {out_path}")

    if obs is not None:
        # A copy under <obs-dir>/bench/ is what lets `repro.obs regress
        # --obs-dir` place this very run at the end of the BENCH chain.
        bench_dir = obs.run.dir / "bench"
        bench_dir.mkdir(exist_ok=True)
        (bench_dir / out_path.name).write_text(
            json.dumps(report, indent=1) + "\n")

    exit_code = 0
    try:
        if args.no_compare:
            return 0
        baseline_path = find_baseline(out_path, args.baseline, suite=label)
        if baseline_path is None:
            print("no baseline found; gate skipped")
            return 0
        baseline = json.loads(baseline_path.read_text())
        print(f"baseline: {baseline_path}")
        exit_code = compare(report, baseline, args.tolerance)
        return exit_code
    finally:
        if obs is not None:
            obs.finish(metrics={
                "suite": label,
                "geomean_cycles_per_sec":
                    report["geomean_cycles_per_sec"],
                "fill_pairs_per_min": report.get("fill_pairs_per_min"),
                "bench_file": out_path.name,
                "gate_exit": exit_code,
            })


if __name__ == "__main__":
    raise SystemExit(main())
