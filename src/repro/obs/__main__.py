"""Observability CLI: ``python -m repro.obs {report,tail}``.

* ``report DIR``   — reconstruct the span tree of one run directory:
  ASCII tree with the critical path marked, per-name self-time rollups,
  wall-clock coverage; ``--json`` emits the same as machine-readable
  data.
* ``tail DIR``     — follow a live run: prints spans as they complete
  and the latest per-worker heartbeat; exits when the run finishes
  (``metrics.json`` appears), the timeout elapses, or ``--once``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from .report import render_report, report_data
from .runs import ObsRun, read_heartbeats
from .spans import read_spans


def cmd_report(opts) -> int:
    obs_dir = Path(opts.dir)
    if not (obs_dir / "manifest.json").exists() \
            and not (obs_dir / "spans.jsonl").exists():
        print(f"{obs_dir}: not a run directory "
              "(no manifest.json or spans.jsonl)", file=sys.stderr)
        return 2
    if opts.json:
        json.dump(report_data(obs_dir), sys.stdout, indent=2,
                  sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(render_report(obs_dir, max_children=opts.max_children))
    return 0


def _span_line(record: dict) -> str:
    dur = max(0, record["end_time_unix_nano"]
              - record["start_time_unix_nano"]) / 1e9
    attrs = record.get("attributes") or {}
    key = attrs.get("key", "")
    return (f"span {record['name']:<10s} {dur:8.3f}s "
            f"pid {record.get('pid', '?'):<8} {key}")


def cmd_tail(opts) -> int:
    obs_dir = Path(opts.dir)
    deadline = None if opts.timeout is None \
        else time.monotonic() + opts.timeout
    try:
        manifest = ObsRun.load_manifest(obs_dir)
        print(f"tailing run {manifest['run_id'][:12]} "
              f"kind={manifest['kind']} (ctrl-c to stop)")
    except FileNotFoundError:
        print(f"waiting for {obs_dir}/manifest.json ...")
    seen = 0
    while True:
        spans = read_spans(obs_dir / "spans.jsonl")
        for record in spans[seen:]:
            print(_span_line(record), flush=True)
        seen = len(spans)
        for pid, beats in sorted(read_heartbeats(obs_dir).items()):
            last = beats[-1]
            state = last.get("state", "?")
            what = f"{last.get('workload', '')}::{last.get('config', '')}" \
                if state == "run" else ""
            print(f"worker {pid}: {state} {what} "
                  f"(done {last.get('done', 0)})", flush=True)
        metrics = ObsRun.load_metrics(obs_dir)
        if metrics is not None:
            print(f"run finished: status {metrics['status']} "
                  f"wall {metrics['wall_seconds']:.3f}s")
            return 0
        if opts.once:
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            print("tail timeout; run still live", file=sys.stderr)
            return 3
        try:
            time.sleep(opts.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect run observability artifacts "
                    "(span traces, heartbeats).",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="span tree + rollups of one run")
    p.add_argument("dir", help="run directory (--obs-dir of the run)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--max-children", type=int, default=12, metavar="N",
                   help="per node, show the N longest child spans "
                        "(default: 12; the rest are summarised)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("tail", help="follow a live run")
    p.add_argument("dir", help="run directory")
    p.add_argument("--interval", type=float, default=0.5, metavar="S",
                   help="poll interval in seconds (default: 0.5)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="give up after S seconds (default: follow forever)")
    p.add_argument("--once", action="store_true",
                   help="print the current state and exit")
    p.set_defaults(fn=cmd_tail)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    opts = build_parser().parse_args(argv)
    return opts.fn(opts)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
