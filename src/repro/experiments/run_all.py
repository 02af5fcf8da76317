"""Prefill the result cache for every experiment.

Usage::

    python -m repro.experiments.run_all [--list] [--jobs N] [--pairs REGEX]
                                        [--champsim PATH] [--obs-dir DIR]

Runs every (workload, configuration) pair any benchmark needs through the
pair-granular sweep engine (:mod:`repro.experiments.pool`), reusing the
on-disk cache; safe to interrupt and resume. With ``--jobs N`` pairs are
dynamically scheduled onto N worker processes, each reading its traces
from the on-disk trace cache; simulation is deterministic, so parallel
and serial fills produce identical caches. ``--pairs REGEX`` restricts
the fill to pairs whose ``workload::config`` key matches (e.g.
``--pairs 'server.*::ubs'`` or ``--pairs '::conv'`` for every
conventional configuration).
``--champsim PATH`` (repeatable) adds an imported real trace as the
workload ``champsim:PATH`` against the core configurations, scheduled
through the same engine as the synthetic suite.

Progress is rendered live — a redrawing status line (done/total, cache
hits, in-flight pairs, an ETA from the engine's per-pair cost model,
calibrated by the pairs already done) on a TTY, one plain line per pair
otherwise. With ``--obs-dir DIR`` (or
``REPRO_OBS_DIR``) the fill additionally writes a full run directory —
``manifest.json``, cross-process ``spans.jsonl``, worker heartbeats and
a final ``metrics.json`` — that ``python -m repro.obs report`` / ``tail``
consume (see :mod:`repro.obs`).
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import List, Tuple

from ..trace.workloads import WorkloadFamily, workload_names
from .pool import pair_key
from .report import perf_workloads
from .session import RunSession, add_session_arguments


def all_pairs() -> List[Tuple[str, str]]:
    """Every (workload, config) pair the benchmark suite touches."""
    perf = perf_workloads()
    google = workload_names(WorkloadFamily.GOOGLE)
    cvp = (workload_names(WorkloadFamily.CVP_SERVER)
           + workload_names(WorkloadFamily.CVP_FP)
           + workload_names(WorkloadFamily.CVP_INT))

    pairs: List[Tuple[str, str]] = []

    def add(workloads, configs):
        for w in workloads:
            for c in configs:
                if (w, c) not in seen:
                    seen.add((w, c))
                    pairs.append((w, c))

    seen: set = set()
    # Core figures first (1/2/4/7/8/9/10).
    add(perf + google, ("conv32", "ubs"))
    add(perf, ("conv64",))
    # Fig. 11 size sweep.
    add(perf, ("conv16", "conv128", "conv192",
               "ubs_budget16", "ubs_budget20", "ubs_budget64",
               "ubs_budget128"))
    # Fig. 12 small blocks, Fig. 13 prior work.
    add(perf, ("small16", "small32"))
    add(perf, ("conv32_ghrp", "conv32_acic", "distill32"))
    # Fig. 15 predictor organisations.
    add(perf, ("ubs_pred_dm128", "ubs_pred_sa8lru", "ubs_pred_sa8fifo",
               "ubs_pred_full"))
    # Fig. 16 way sweep.
    add(perf, ("ubs_ways10c1", "ubs_ways10c2", "ubs_ways12c1",
               "ubs_ways12c2", "ubs_ways14c1", "ubs_ways14c2",
               "ubs_ways16c2", "ubs_ways18c1", "ubs_ways18c2",
               "conv32_16w"))
    # Section VI-L held-out traces.
    add(cvp, ("conv32", "conv64", "ubs"))
    # Headroom bound + design ablations.
    from .ablations import DEFAULT_WORKLOADS as ablation_workloads
    add(perf, ("ideal",))
    add(ablation_workloads,
        ("ubs_gap0", "ubs_gap8", "ubs_win1", "ubs_win16", "ubs_ghrp"))
    return pairs


def _regex(text: str) -> "re.Pattern[str]":
    try:
        return re.compile(text)
    except re.error as exc:    # argparse only converts ValueError/TypeError
        raise argparse.ArgumentTypeError(f"invalid regex {text!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run_all",
        description="Prefill the simulation result cache for every "
                    "benchmark (resumable; results are cached on disk).",
        allow_abbrev=False)
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep engine (default: 1, inline)")
    parser.add_argument(
        "--list", action="store_true",
        help="print the selected (workload, config) pairs and exit")
    parser.add_argument(
        "--pairs", type=_regex, default=None, metavar="REGEX",
        help="only fill pairs whose 'workload::config' key matches "
             "(re.search), e.g. 'server.*::ubs'")
    parser.add_argument(
        "--champsim", action="append", default=[], metavar="PATH",
        help="also fill the imported ChampSim trace at PATH (workload "
             "'champsim:PATH') against the core configs; repeatable")
    add_session_arguments(parser)
    return parser


def main(argv: List[str]) -> int:
    opts = build_parser().parse_args(argv)
    pairs = all_pairs()
    for path in opts.champsim:
        from ..trace.workloads import IMPORT_PREFIX

        for config in ("conv32", "ubs"):
            pairs.append((IMPORT_PREFIX + path, config))
    if opts.pairs is not None:
        pairs = [(w, c) for w, c in pairs
                 if opts.pairs.search(pair_key(w, c))]
    if opts.list:
        for w, c in pairs:
            print(w, c)
        return 0
    jobs = max(1, opts.jobs)
    config = {"jobs": jobs, "pairs": len(pairs),
              "filter": opts.pairs.pattern if opts.pairs else None}
    with RunSession("run_all", argv, opts, jobs, config) as session:
        engine = session.engine
        jobs = session.jobs
        print(f"{len(pairs)} pairs selected "
              f"({jobs} job{'s' if jobs > 1 else ''})", flush=True)
        engine.run(pairs)
        session.metrics.update({
            "pairs_selected": len(pairs),
            "pairs_simulated": engine.pairs_simulated,
            "fill_seconds": round(engine.fill_seconds, 3),
            "fill_pairs_per_min": round(engine.pairs_per_min, 1),
        })
        where = session.cache.counters_line() if session.server is None \
            else f"via service {session.server}"
        print(f"done: {engine.pairs_simulated} simulated in "
              f"{engine.fill_seconds:.1f}s "
              f"({engine.pairs_per_min:.1f} pairs/min; "
              f"{where})", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
