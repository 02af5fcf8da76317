#!/usr/bin/env python
"""Assert that a parallel prefill produces the same cache as a serial one.

Runs ``run_all``'s fill twice into throwaway caches — inline and with a
worker pool — and compares every result JSON byte-for-byte after masking
the host-timing extras (``sim_wall_seconds`` and the derived throughput
rates), which legitimately differ between runs. Any other difference
means parallel scheduling changed simulation semantics, and the script
exits 1. CI runs this at a tiny ``REPRO_SCALE`` on every push.

Usage::

    python tools/check_fill_parity.py [--jobs N] [--pairs REGEX] [--scale S]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Host-timing keys that are not part of simulation semantics.
VOLATILE_KEYS = ("sim_wall_seconds", "sim_cycles_per_sec",
                 "sim_instrs_per_sec")

#: Default CI subset: two workloads x both headline configs exercises
#: trace fan-out and per-worker memoisation without a long fill.
DEFAULT_PAIRS_REGEX = r"^(server|client)_000::(conv32|ubs)$"


def _masked_cache(root: Path) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for path in sorted((root / "results").glob("*.json")):
        data = json.loads(path.read_text())
        for key in VOLATILE_KEYS:
            data.get("extra", {}).pop(key, None)
        out[path.name] = data
    return out


def _fill(pairs, jobs: int) -> Dict[str, dict]:
    from repro.experiments.pool import SweepEngine
    from repro.experiments.runner import ResultCache

    root = Path(tempfile.mkdtemp(prefix=f"fill_parity_j{jobs}_"))
    try:
        engine = SweepEngine(jobs=jobs, cache=ResultCache(root))
        engine.run(pairs)
        print(f"  --jobs {jobs}: {engine.pairs_simulated} pairs in "
              f"{engine.fill_seconds:.2f}s", flush=True)
        leftovers = list(root.rglob("*.tmp"))
        if leftovers:
            raise SystemExit(f"leaked temp files: {leftovers}")
        return _masked_cache(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker count for the parallel fill")
    parser.add_argument("--pairs", default=DEFAULT_PAIRS_REGEX,
                        help="regex over 'workload::config' selecting the "
                             "pairs to fill")
    parser.add_argument("--scale", default="0.05",
                        help="REPRO_SCALE for both fills")
    args = parser.parse_args(argv)

    os.environ["REPRO_SCALE"] = args.scale

    import re

    from repro.experiments.pool import pair_key
    from repro.experiments.run_all import all_pairs

    pattern = re.compile(args.pairs)
    pairs = [(w, c) for w, c in all_pairs()
             if pattern.search(pair_key(w, c))]
    if not pairs:
        print(f"no pairs match {args.pairs!r}")
        return 2
    print(f"fill parity: {len(pairs)} pairs at REPRO_SCALE={args.scale}")
    serial = _fill(pairs, jobs=1)
    parallel = _fill(pairs, jobs=args.jobs)

    if serial == parallel:
        print(f"parity ok: {len(serial)} result files identical "
              "(host-timing extras masked)")
        return 0
    for name in sorted(set(serial) ^ set(parallel)):
        side = "serial" if name in serial else "parallel"
        print(f"MISMATCH: {name} only present in the {side} fill")
    for name in sorted(set(serial) & set(parallel)):
        if serial[name] != parallel[name]:
            print(f"MISMATCH: {name} differs between fills")
    print("PARITY FAILED: parallel scheduling changed simulation results")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
