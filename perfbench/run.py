#!/usr/bin/env python3
"""The repository benchmark: host time of the simulator, end to end and
per layer, with every simulated result checked exactly.

Run from the repository root::

    python3 perfbench/run.py --workload solo_sweep --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py                   # every workload, each in a
                                               # fresh interpreter, as a table

``BENCHMARK.json`` at the root declares the workloads and the metrics
(names, units, bounds); this script reads the names and units from it.
A run repeats the workload (set-up, then the timed region, then the
output check) until ``--seconds`` have passed and reports medians over
the repetitions:

* ``--trace 0`` prints the end-to-end metrics: ``wall_s`` (the timed
  region), ``sim_kips`` (simulated instructions, warm-up + measure over
  all threads, per host second of it), ``setup_s`` (the phase before it)
  and ``peak_rss_mb`` (this process plus its largest child).
* ``--trace 1`` alternates untraced and traced repetitions and prints
  the per-layer metrics: span figures of the traced ones (see
  ``tracing.py``), the tracing overhead (traced minus untraced
  ``wall_s``), a ``StageProfiler`` calibration, and the simulated-time
  ``model.*`` counters. The spans are written to
  ``perfbench/out/<workload>-seed<seed>/spans.jsonl``; render them with
  ``PYTHONPATH=src python -m repro.obs report <that dir>``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is
one simulated pair; it fails when it raises or when its statistics
differ from ``perfbench/fingerprints.json`` (regenerate with
``perfbench/pin.py`` only when the simulated model is meant to change).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_layers():
    """Put the program and this directory on the path; fail fast when
    the checkout holds no program to measure."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no simulator sources under "
                         f"{ROOT / 'src'}; run from a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_units(group: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in _declared()[group]}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest
    # waited-for child (a pool worker where a pool runs).
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as wl
    from tracing import SpanRecorder, span_metrics, write_spans

    fingerprints_path = HERE / "fingerprints.json"
    pinned = json.loads(fingerprints_path.read_text())
    if pinned.get("scale") != wl.SCALE:
        raise SystemExit(f"perfbench: {fingerprints_path} is pinned at scale "
                         f"{pinned.get('scale')}, the workloads run at "
                         f"{wl.SCALE}")
    fingerprints = pinned["pairs"]
    body = wl.WORKLOADS[name]

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / ".work"))
    reps: List[wl.Rep] = []
    attempted = failed = 0
    errors: List[str] = []
    try:
        start = perf_counter()
        min_reps = 2 if trace else 1
        # Start another repetition only if it should end within the
        # budget, so a run lasts about --seconds whatever the host speed.
        while len(reps) < min_reps or (
                (perf_counter() - start) * (len(reps) + 1) / len(reps)
                <= seconds):
            index = len(reps)
            recorder = SpanRecorder(workdir / "worker-spans.jsonl") \
                if trace and index % 2 == 1 else None
            ctx = wl.Context(seed, workdir, index, recorder)
            if recorder is not None:
                with recorder.installed():
                    rep = body(ctx)
                recorder.collect_workers()
                rep.spans = recorder.writer.records
            else:
                rep = body(ctx)
            n, bad = wl.check(rep, fingerprints)
            attempted += n
            failed += bad
            errors += rep.errors
            reps.append(rep)
            print(f"perfbench: {name} rep {index}: "
                  f"setup {rep.setup_s:.3f}s wall {rep.wall_s:.3f}s"
                  f"{' traced' if rep.spans else ''}", file=sys.stderr)
            wl.clean(ctx)
        calibration = wl.Rep()
        if trace:
            n, bad = wl.calibrate(name, seed, calibration, fingerprints)
            attempted += n
            failed += bad
            errors += calibration.errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in errors[:20]:
        print(f"perfbench: {name}: {line}", file=sys.stderr)

    if not trace:
        values = {
            "wall_s": _median([r.wall_s for r in reps]),
            "sim_kips": _median([r.instrs / r.wall_s / 1e3 for r in reps]),
            "setup_s": _median([r.setup_s for r in reps]),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = _metric_units("end_to_end")
    else:
        traced = [r for r in reps if r.spans]
        # The first repetition also pays the process's one-time costs;
        # leave it out of the overhead when later untraced ones exist.
        untraced = [r for r in reps[1:] if not r.spans] or reps[:1]
        per_rep = [{**span_metrics(r.spans), **r.layer} for r in traced]
        values = {k: _median([m.get(k, 0.0) for m in per_rep])
                  for k in set().union(*per_rep)}
        values["tracing.overhead_s"] = (
            _median([r.wall_s for r in traced])
            - _median([r.wall_s for r in untraced]))
        values.update(calibration.layer)
        values.update(wl.model_counters(reps[-1], fingerprints))
        units = _metric_units("per_layer")
        spans_dir = HERE / "out" / f"{name}-seed{seed}"
        write_spans(spans_dir / "spans.jsonl",
                    [s for r in traced for s in r.spans])
        print(f"perfbench: spans in {spans_dir}", file=sys.stderr)
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        print(f"perfbench: undeclared metrics {undeclared}", file=sys.stderr)
    metrics = {k: {"value": float(values.get(k, 0.0)), "unit": u}
               for k, u in units.items()}
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def _print_table(workload: str, out: dict) -> None:
    print(f"== {workload}: {out['attempted']} pairs checked, "
          f"{out['failed']} failed")
    for metric, m in out["metrics"].items():
        print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")


def run_all(opts) -> int:
    """Every workload in its own interpreter, so trace memos, derived
    caches and peak RSS never carry from one workload to the next."""
    combined = {}
    for workload in (w["name"] for w in _declared()["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(opts.seed),
             "--seconds", str(opts.seconds), "--trace", str(opts.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        combined[workload] = json.loads(lines[-1])
        _print_table(workload, combined[workload])
    print(json.dumps(combined, sort_keys=True))
    return 0 if all(o["correct"] for o in combined.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        help="one workload; omit to run all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    _import_layers()
    if opts.seconds is None:
        opts.seconds = _declared()["run_seconds"]

    import workloads as wl

    # Pin the scale, and keep every file the program writes inside this
    # checkout: no default cache, observer or daemon from the environment.
    os.environ["REPRO_SCALE"] = wl.SCALE
    for var in ("REPRO_CACHE_DIR", "REPRO_OBS_DIR", "REPRO_SERVER"):
        os.environ.pop(var, None)
    os.chdir(ROOT)

    if opts.workload is None:
        return run_all(opts)
    if opts.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {opts.workload!r}; choose from "
                     f"{sorted(wl.WORKLOADS)}")
    try:
        out = run_workload(opts.workload, opts.seed, opts.seconds,
                           bool(opts.trace))
    finally:
        wl.stop_helpers()
    _print_table(opts.workload, out)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
