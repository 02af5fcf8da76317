"""Budget-constrained design-space exploration driver.

Usage::

    python -m repro.experiments.dse --strategy hill --budget-evals 40 \
        --jobs 4 --seed 0 --out results/dse

Searches UBS geometries (way-size vectors, predictor sizing, FTQ depth)
under the paper's iso-storage budget (:mod:`repro.dse`), fanning
evaluation out through the pair-granular sweep engine. Every completed
point is appended to ``<out>/journal.jsonl``; re-running the same command
after a crash (or SIGKILL) replays the strategy against the journal and
re-simulates nothing. The final report places the paper's Table II
default against the discovered storage × speedup Pareto frontier.

Outputs in ``--out``:

* ``journal.jsonl`` — crash-safe evaluation journal (resume state);
* ``report.txt``    — ranked table, frontier, default-vs-frontier verdict
  and an ASCII scatter; deterministic for a fixed (strategy, seed,
  workloads, REPRO_SCALE) regardless of ``--jobs``;
* ``pareto.json``   — the frontier and headline numbers, sorted keys.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

from ..dse import (
    DesignSpace,
    EvalRecord,
    SEARCH_BUDGET_TOLERANCE,
    SearchJournal,
    SearchOutcome,
    default_point,
    make_strategy,
    run_search,
)
from ..trace.workloads import scale_factor, workload_names
from ..viz import scatter_plot
from .report import format_table
from .session import RunSession, add_session_arguments

#: Default workload selection: the family the paper's headline front-end
#: stall numbers come from (and the cheapest to keep a search tractable).
DEFAULT_WORKLOADS = "server"

_FAMILIES = ("google", "server", "client", "spec",
             "cvp_srv", "cvp_int", "cvp_fp")


def resolve_workloads(spec: str) -> List[str]:
    """Expand a comma-separated list of families and/or workload names."""
    out: List[str] = []
    seen = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        names = workload_names(token) if token in _FAMILIES else [token]
        for name in names:
            if name not in seen:
                seen.add(name)
                out.append(name)
    return out


def kib(bits: float) -> float:
    return bits / 8192.0


def render_report(outcome: SearchOutcome, workloads: List[str],
                  seed: int) -> str:
    """Deterministic plain-text report of one finished search."""
    lines = [
        "UBS design-space exploration",
        f"  strategy={outcome.strategy}  objective={outcome.objective}  "
        f"seed={seed}  scale={scale_factor():g}",
        f"  workloads ({len(workloads)}): {', '.join(workloads)}",
        f"  evaluations={len(outcome.records)}  "
        f"generations={outcome.generations}",
        "",
        "Ranked design points (best first):",
    ]
    frontier_keys = {r.key for r in outcome.frontier}
    default_key = default_point().config_name
    rows = []
    for rank, record in enumerate(outcome.ranked(), start=1):
        marks = ("*" if record.key in frontier_keys else "") + \
            ("D" if record.key == default_key else "")
        rows.append((
            rank, record.key, marks,
            record.point.data_bytes,
            f"{kib(record.metrics['storage_bits']):.3f}",
            f"{record.metrics['speedup_geomean']:.4f}",
            f"{record.metrics['mpki_mean']:.3f}",
            f"{record.metrics['efficiency_mean']:.4f}",
        ))
    lines.append(format_table(
        ("rank", "config", "", "data B/set", "KiB", "speedup", "mpki",
         "efficiency"), rows))
    lines += ["", "  (* on the storage × speedup Pareto frontier, "
              "D = paper Table II default)", "",
              "Pareto frontier (storage ascending):"]
    for record in outcome.frontier:
        lines.append(
            f"  {kib(record.metrics['storage_bits']):8.3f} KiB  "
            f"speedup {record.metrics['speedup_geomean']:.4f}  "
            f"{record.key}")
    lines.append("")
    default = outcome.default
    if default is not None:
        where = "ON the frontier" if default.key in frontier_keys else \
            f"{outcome.default_gap:.2%} below the frontier at its budget"
        lines.append(
            f"Table II default ({default.key}): "
            f"speedup {default.metrics['speedup_geomean']:.4f} at "
            f"{kib(default.metrics['storage_bits']):.3f} KiB — {where}.")
    else:
        lines.append("Table II default was not evaluated "
                     "(budget exhausted before the first generation).")
    if outcome.best is not None and default is not None \
            and outcome.best.key != default.key:
        best = outcome.best
        lines.append(
            f"Best found ({best.key}): "
            f"speedup {best.metrics['speedup_geomean']:.4f} at "
            f"{kib(best.metrics['storage_bits']):.3f} KiB.")
    points = [(kib(r.metrics["storage_bits"]),
               r.metrics["speedup_geomean"]) for r in outcome.records]
    lines += ["", scatter_plot(
        points,
        x_label="KiB", y_label="geomean speedup",
        frontier=[i for i, r in enumerate(outcome.records)
                  if r.key in frontier_keys],
        highlight=[i for i, r in enumerate(outcome.records)
                   if r.key == default_key]), ""]
    return "\n".join(lines)


def _record_blob(record: EvalRecord) -> dict:
    return {
        "key": record.key,
        "way_sizes": list(record.point.way_sizes),
        "predictor_entries": record.point.predictor_entries,
        "ftq_entries": record.point.ftq_entries,
        "metrics": record.metrics,
    }


def pareto_blob(outcome: SearchOutcome, workloads: List[str],
                seed: int) -> dict:
    """JSON-serialisable summary (deterministic; no timestamps)."""
    return {
        "strategy": outcome.strategy,
        "objective": outcome.objective,
        "seed": seed,
        "scale": scale_factor(),
        "workloads": workloads,
        "evaluations": len(outcome.records),
        "frontier": [_record_blob(r) for r in outcome.frontier],
        "best": _record_blob(outcome.best) if outcome.best else None,
        "default": _record_blob(outcome.default) if outcome.default
        else None,
        "default_gap": outcome.default_gap,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.dse",
        description="Search UBS geometries under the iso-storage budget; "
                    "resumable via the journal in --out.",
        allow_abbrev=False)
    parser.add_argument("--strategy", choices=("grid", "random", "hill"),
                        default="hill")
    parser.add_argument("--budget-evals", type=int, default=40, metavar="N",
                        help="stop after N evaluated design points "
                             "(journaled points count; default: 40)")
    parser.add_argument("--jobs", type=int, default=1, metavar="J",
                        help="sweep-engine worker processes (default: 1); "
                             "does not affect results")
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="output directory (journal.jsonl, report.txt, "
                             "pareto.json)")
    parser.add_argument("--workloads", default=DEFAULT_WORKLOADS,
                        metavar="SPEC",
                        help="comma-separated families and/or workload "
                             f"names (default: {DEFAULT_WORKLOADS})")
    parser.add_argument("--objective",
                        choices=("speedup", "mpki", "efficiency"),
                        default="speedup")
    parser.add_argument("--baseline", default="conv32", metavar="CONFIG")
    parser.add_argument("--tolerance", type=float,
                        default=SEARCH_BUDGET_TOLERANCE, metavar="FRAC",
                        help="admissible deviation from the 444 B/set data "
                             f"budget (default: {SEARCH_BUDGET_TOLERANCE})")
    add_session_arguments(parser)
    return parser


def main(argv: List[str]) -> int:
    opts = build_parser().parse_args(argv)
    workloads = resolve_workloads(opts.workloads)
    if not workloads:
        print("no workloads selected", file=sys.stderr)
        return 2
    os.makedirs(opts.out, exist_ok=True)
    space = DesignSpace(budget_tolerance=opts.tolerance)
    strategy = make_strategy(opts.strategy, space, objective=opts.objective)
    journal = SearchJournal(os.path.join(opts.out, "journal.jsonl"))

    def progress(generation: int, new, done: int, budget: int) -> None:
        resumed = sum(1 for r in new if r.resumed)
        print(f"[gen {generation}] +{len(new)} points "
              f"({resumed} from journal) -> {done}/{budget}", flush=True)

    jobs = max(1, opts.jobs)
    config = {"strategy": opts.strategy, "seed": opts.seed,
              "budget_evals": opts.budget_evals, "jobs": jobs,
              "workloads": workloads, "objective": opts.objective}
    with RunSession("dse", argv, opts, jobs, config) as session:
        outcome = run_search(
            space, strategy, opts.budget_evals, workloads,
            objective=opts.objective, baseline=opts.baseline,
            seed=opts.seed, journal=journal, obs=session.obs,
            engine=session.engine, progress=progress)
        session.metrics.update({
            "evaluations": len(outcome.records),
            "generations": outcome.generations,
            "pairs_simulated": outcome.pairs_simulated,
            "evals_resumed": outcome.evals_resumed,
        })
        report = render_report(outcome, workloads, opts.seed)
        report_path = os.path.join(opts.out, "report.txt")
        with open(report_path, "w") as fh:
            fh.write(report)
        with open(os.path.join(opts.out, "pareto.json"), "w") as fh:
            json.dump(pareto_blob(outcome, workloads, opts.seed), fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
        print(report)
        print(f"evals {len(outcome.records)} resumed "
              f"{outcome.evals_resumed} simulated-pairs "
              f"{outcome.pairs_simulated}", flush=True)
        print(f"report: {report_path}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
