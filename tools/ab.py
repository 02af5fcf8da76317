#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark: a git revision against
this checkout.

Usage::

    python3 tools/ab.py <rev>                          # every workload
    python3 tools/ab.py <rev> --workload solo_sweep --pairs 10 --seed 701
    python3 tools/ab.py <rev> --workload fill_cold --trace 1

It builds a detached ``git worktree`` of ``<rev>`` (the *base*) in a
temporary directory. For each workload it then runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0``, with
``T`` the ``run_seconds`` of this checkout's ``BENCHMARK.json``, once in
the base and once in this checkout (the *change*, uncommitted edits
included) for each of ``--pairs`` seeds ``S = --seed, --seed + 1, ...``,
alternating which side runs first. Every run is a fresh interpreter in
its own tree. With ``--trace 1`` each side also gets one traced run
(first seed; the first side alternates from workload to workload) whose
per-layer figures print side by side. The worktree
is removed on exit.

Per workload it prints lines ready for CHANGES.md: for every end-to-end
metric of ``BENCHMARK.json`` each side's median and quartiles, the
median and every per-pair change/base ratio, the pairs the change won
and whether the medians differ by more than the base's interquartile
range; then the failed operations of each side. Progress goes to standard
error. Exit status 1 when any run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def schedule(workloads: Sequence[str], seed: int,
             pairs: int) -> List[Tuple[str, int, Tuple[str, str]]]:
    """(workload, seed, side order) for every run pair: seeds count up
    from ``seed``, and the side that runs first alternates."""
    out = []
    for workload in workloads:
        for i in range(pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            out.append((workload, seed + i, order))
    return out


def run_bench(tree: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its JSON result, or
    ``{"error": ...}`` when it exits nonzero or prints no result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unparsable result line {lines[-1][:80]!r}"}


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """(first, third) quartile; both the value itself for one run."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _value(run: dict, metric: str) -> Optional[float]:
    m = run.get("metrics", {}).get(metric)
    return None if m is None else m["value"]


def summarise(workload: str, pairs: List[Tuple[dict, dict]],
              end_to_end: List[dict]) -> Tuple[List[str], bool]:
    """CHANGES.md-ready lines for one workload's ``(base, change)`` run
    pairs, and whether every run succeeded with ``correct: true``."""
    ok = all("error" not in r and r.get("correct") for p in pairs for r in p)
    good = [(b, c) for b, c in pairs if "error" not in b and "error" not in c]
    lines = [f"{workload}: {len(good)} of {len(pairs)} pairs complete"]
    for decl in end_to_end:
        name, unit, better = decl["name"], decl["unit"], decl["better"]
        vals = [(_value(b, name), _value(c, name)) for b, c in good]
        vals = [(b, c) for b, c in vals if b is not None and c is not None]
        if not vals:
            lines.append(f"  {name}: no values")
            continue
        base = [b for b, _ in vals]
        change = [c for _, c in vals]
        ratios = [c / b if b else float("nan") for b, c in vals]
        won = sum(1 for b, c in vals if (c < b if better == "lower" else c > b))
        base_med = statistics.median(base)
        change_med = statistics.median(change)
        bq1, bq3 = quartiles(base)
        cq1, cq3 = quartiles(change)
        spread = bq3 - bq1
        beyond = abs(change_med - base_med) > spread
        lines.append(
            f"  {name} ({better} is better): base {base_med:.4g} {unit} "
            f"(quartiles {bq1:.4g}-{bq3:.4g}, IQR {spread:.3g}) -> change "
            f"{change_med:.4g} {unit} (quartiles {cq1:.4g}-{cq3:.4g}), "
            f"median ratio {statistics.median(ratios):.3f}, "
            f"won {won}/{len(vals)}, "
            f"medians {'differ by more than' if beyond else 'within'} "
            f"the base IQR; ratios "
            + " ".join(f"{r:.3f}" for r in ratios))
    for side, idx in (("base", 0), ("change", 1)):
        runs = [p[idx] for p in pairs]
        errors = [r["error"] for r in runs if "error" in r]
        attempted = sum(r.get("attempted", 0) for r in runs)
        failed = sum(r.get("failed", 0) for r in runs)
        correct = sum(1 for r in runs if r.get("correct"))
        line = (f"  {side}: failed operations {failed}/{attempted}, "
                f"correct {correct}/{len(runs)} runs")
        if errors:
            line += f", {len(errors)} runs failed ({errors[0]})"
        lines.append(line)
    return lines, ok


def traced_lines(workload: str, base: dict, change: dict,
                 per_layer: List[dict]) -> List[str]:
    """Side-by-side per-layer figures of one traced run per side."""
    lines = [f"{workload} traced (--trace 1), base -> change:"]
    for side, run in (("base", base), ("change", change)):
        if "error" in run:
            lines.append(f"  {side} traced run failed: {run['error']}")
    for decl in per_layer:
        name = decl["name"]
        values = [_value(base, name), _value(change, name)]
        if values == [None, None]:
            continue
        b, c = ("-" if v is None else f"{v:.6g}" for v in values)
        lines.append(f"  {name:36s} {b:>14s} -> {c:>14s} {decl['unit']}")
    return lines


def add_worktree(rev: str) -> Path:
    where = Path(tempfile.mkdtemp(prefix="ab-base-"))
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                    str(where), rev], check=True, stdout=subprocess.DEVNULL)
    return where


def remove_worktree(where: Path) -> None:
    subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                    str(where)], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    shutil.rmtree(where, ignore_errors=True)
    subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the base revision (e.g. HEAD~1)")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=701,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also one traced run per side and workload")
    opts = parser.parse_args(argv)

    decl = declared()
    # Both sides run for the benchmark's declared run length.
    seconds = decl["run_seconds"]
    names = [w["name"] for w in decl["workloads"]]
    workloads = opts.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {names}")

    # SIGTERM unwinds like Ctrl-C: the running benchmark is killed and
    # the worktree removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    base_tree = add_worktree(opts.rev)
    trees = {"base": base_tree, "change": ROOT}
    ok = True
    try:
        results: Dict[str, List[Tuple[dict, dict]]] = {w: [] for w in workloads}
        for workload, seed, order in schedule(workloads, opts.seed,
                                              opts.pairs):
            pair = {}
            for side in order:
                print(f"ab: {workload} seed {seed} {side}", file=sys.stderr)
                pair[side] = run_bench(trees[side], workload, seed,
                                       seconds, 0)
            results[workload].append((pair["base"], pair["change"]))
        print(f"base {opts.rev} vs change (this checkout); "
              f"perfbench/run.py --seconds {seconds:g} --trace 0, "
              f"seeds {opts.seed}-{opts.seed + opts.pairs - 1}, "
              f"alternating first side")
        for workload in workloads:
            lines, good = summarise(workload, results[workload],
                                    decl["end_to_end"])
            ok &= good
            print("\n".join(lines))
        if opts.trace:
            for k, workload in enumerate(workloads):
                # Alternate the first side here too, so that host drift
                # does not always favour the same side.
                order = ("base", "change") if k % 2 == 0 \
                    else ("change", "base")
                traced = {side: run_bench(trees[side], workload, opts.seed,
                                          seconds, 1)
                          for side in order}
                ok &= all("error" not in r and r.get("correct")
                          for r in traced.values())
                print("\n".join(traced_lines(workload, traced["base"],
                                             traced["change"],
                                             decl["per_layer"])))
    finally:
        remove_worktree(base_tree)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
