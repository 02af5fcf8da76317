"""Per-pair SMT interference matrix.

Usage::

    python -m repro.experiments.smt_matrix [--workloads W1,W2,...]
        [--configs conv32,ubs,small16] [--policy rr|icount] [--jobs N]
        [--server ADDR] [--obs-dir DIR] [--list] [--json PATH]

For every unordered workload pair (A, B) — including A with itself — the
experiment simulates the co-run ``smt:A+B`` plus both solo baselines and
reports the **slowdown matrix**: ``slowdown[i][j]`` is workload *i*'s
solo IPC divided by its per-thread IPC when co-run with workload *j* on
one SMT core (1.0 = no interference). Each L1-I configuration gets its
own matrix, so conventional, UBS and small-block organisations can be
compared at iso-storage under instruction-cache sharing.

Every (workload, config) job — solo and co-run alike — fans pair-granular
through the ordinary :class:`~repro.experiments.pool.SweepEngine` (or a
:mod:`repro.service` daemon via ``--server``), and results land in the
shared :class:`~repro.experiments.runner.ResultCache` under SMT-aware
keys, so re-runs and other experiments reuse them.

The emitted JSON (``--json``) is what :mod:`repro.smt.pairing` consumes
to assign N workloads onto N/2 cores.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Sequence, Tuple

from ..trace.workloads import scale_factor
from .session import RunSession, add_session_arguments

#: Four workloads spanning the contention regimes: two big-footprint
#: servers (one violently front-end bound), a loopy mid-size client and
#: a small spec kernel that lives in the cache.
DEFAULT_WORKLOADS = ("server_000", "server_002", "client_000", "spec_000")

#: Headline configurations at iso-storage (32 KB-class budgets).
DEFAULT_CONFIGS = ("conv32", "ubs", "small16")


def smt_name(a: str, b: str, policy: str = "rr") -> str:
    """The ``smt:`` workload name of the (A, B) co-run."""
    name = f"smt:{a}+{b}"
    if policy != "rr":
        name += f"@{policy}"
    return name


def matrix_pairs(workloads: Sequence[str], configs: Sequence[str],
                 policy: str = "rr") -> List[Tuple[str, str]]:
    """Every (workload, config) job the matrix needs: all solos plus all
    unordered co-runs (diagonal included) per configuration."""
    pairs: List[Tuple[str, str]] = []
    for config in configs:
        for w in workloads:
            pairs.append((w, config))
        for i, a in enumerate(workloads):
            for b in workloads[i:]:
                pairs.append((smt_name(a, b, policy), config))
    return pairs


def _thread_ipc(corun, tid: int) -> float:
    tdict = corun.extra["threads"][tid]
    return tdict["instructions"] / tdict["cycles"] if tdict["cycles"] else 0.0


def build_matrix(results: Dict[Tuple[str, str], "object"],
                 workloads: Sequence[str], config: str,
                 policy: str = "rr") -> Dict[str, object]:
    """Assemble one configuration's slowdown matrix from sweep results.

    ``slowdown[i][j]`` = solo IPC of workload i / its co-run IPC next to
    workload j. The diagonal is a self-co-run (``smt:A+A``); thread 0's
    slowdown is reported (the two threads differ only by arbitration
    tie-breaks).
    """
    n = len(workloads)
    solo_ipc = [results[(w, config)].ipc for w in workloads]
    slowdown: List[List[float]] = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            lo, hi = (i, j) if i <= j else (j, i)
            corun = results[(smt_name(workloads[lo], workloads[hi],
                                      policy), config)]
            tid = 0 if i <= j else 1
            co_ipc = _thread_ipc(corun, tid)
            slowdown[i][j] = solo_ipc[i] / co_ipc if co_ipc else 0.0
    return {
        "config": config,
        "policy": policy,
        "workloads": list(workloads),
        "solo_ipc": solo_ipc,
        "slowdown": slowdown,
    }


def mean_slowdown(matrix: Dict[str, object]) -> float:
    """Mean off-diagonal slowdown (the matrix's headline number)."""
    slowdown = matrix["slowdown"]
    n = len(slowdown)
    cells = [slowdown[i][j] for i in range(n) for j in range(n) if i != j]
    return sum(cells) / len(cells) if cells else 0.0


def render_matrix(matrix: Dict[str, object]) -> str:
    """Fixed-width table of one configuration's slowdown matrix."""
    workloads = matrix["workloads"]
    slowdown = matrix["slowdown"]
    width = max(10, max(len(w) for w in workloads) + 1)
    lines = [f"config={matrix['config']} policy={matrix['policy']} "
             "(row's slowdown when co-run with column)"]
    header = " " * width + "".join(f"{w:>{width}}" for w in workloads)
    lines.append(header)
    for i, w in enumerate(workloads):
        cells = "".join(f"{slowdown[i][j]:>{width}.3f}"
                        for j in range(len(workloads)))
        lines.append(f"{w:<{width}}{cells}")
    lines.append(f"mean co-run slowdown: {mean_slowdown(matrix):.3f}")
    return "\n".join(lines)


def _csv(text: str) -> List[str]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty list")
    return items


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.smt_matrix",
        description="Measure the per-pair SMT interference matrix "
                    "(slowdown of A co-run with B) per L1-I "
                    "configuration.",
        allow_abbrev=False)
    parser.add_argument(
        "--workloads", type=_csv, default=list(DEFAULT_WORKLOADS),
        metavar="W1,W2,...",
        help=f"workloads to cross (default: {','.join(DEFAULT_WORKLOADS)})")
    parser.add_argument(
        "--configs", type=_csv, default=list(DEFAULT_CONFIGS),
        metavar="C1,C2,...",
        help=f"L1-I configurations (default: {','.join(DEFAULT_CONFIGS)})")
    parser.add_argument(
        "--policy", choices=("rr", "icount"), default="rr",
        help="fetch-arbitration policy for the co-runs (default: rr)")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep engine (default: 1, inline)")
    parser.add_argument(
        "--list", action="store_true",
        help="print the selected (workload, config) jobs and exit")
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the matrices as JSON to PATH ('-' for stdout); the "
             "format repro.smt.pairing consumes")
    add_session_arguments(parser)
    return parser


def main(argv: List[str]) -> int:
    opts = build_parser().parse_args(argv)
    workloads = opts.workloads
    pairs = matrix_pairs(workloads, opts.configs, opts.policy)
    if opts.list:
        for w, c in pairs:
            print(w, c)
        return 0
    jobs = max(1, opts.jobs)
    config = {"jobs": jobs, "workloads": workloads,
              "configs": opts.configs, "policy": opts.policy}
    with RunSession("smt_matrix", argv, opts, jobs, config) as session:
        engine = session.engine
        jobs = session.jobs
        print(f"{len(pairs)} jobs selected ({len(workloads)} workloads x "
              f"{len(opts.configs)} configs, policy={opts.policy}, "
              f"{jobs} job{'s' if jobs > 1 else ''})", flush=True)
        results = engine.run(pairs)
        session.metrics.update({
            "pairs_selected": len(pairs),
            "pairs_simulated": engine.pairs_simulated,
            "fill_seconds": round(engine.fill_seconds, 3),
        })
        matrices = {config: build_matrix(results, workloads, config,
                                         opts.policy)
                    for config in opts.configs}
        for config in opts.configs:
            print()
            print(render_matrix(matrices[config]), flush=True)
        if opts.json:
            payload = json.dumps({
                "scale": scale_factor(),
                "policy": opts.policy,
                "workloads": workloads,
                "configs": matrices,
            }, indent=1, sort_keys=True)
            if opts.json == "-":
                print(payload)
            else:
                with open(opts.json, "w") as fh:
                    fh.write(payload + "\n")
                print(f"\nmatrices written to {opts.json}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
