#!/usr/bin/env python3
"""Regenerate ``fingerprints.json``: the exact simulated statistics of
every pair the benchmark can run, at its scale.

    python3 perfbench/pin.py

Run this only when a change is meant to alter simulated results; a
performance change must leave the file untouched. It pins:

* ``v<k>/...`` — the ``solo_sweep`` and ``smt_corun`` pairs on each of
  the seed-derived input sets, simulated by those workloads' own code;
* ``suite/...`` — the ``fill_cold`` pairs and every pair a
  ``dse_resweep`` search can reach (the baseline, the Table II point and
  all its neighbours), simulated through the sweep engine.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    import workloads as wl

    os.environ["REPRO_SCALE"] = wl.SCALE
    from repro.dse.space import DesignSpace, default_point
    from repro.experiments.pool import SweepEngine
    from repro.experiments.runner import ResultCache

    space = DesignSpace()
    dse_configs = ["conv32", "ubs"] + [
        p.config_name for p in space.neighbors(default_point())]
    suite = {(n, c) for n in wl.SOLO_TRACES for c in wl.SOLO_CONFIGS}
    suite |= {(n, c) for n in wl.DSE_TRACES for c in dse_configs}
    pairs = {}
    tmp = Path(tempfile.mkdtemp(prefix="pin-", dir=HERE))
    try:
        # The seed-derived sets come from the workloads' own timed code.
        for index in range(wl.VARIANTS):
            for n, body in enumerate((wl.solo_sweep, wl.smt_corun)):
                rep = body(wl.Context(index, tmp, 2 * index + n, None))
                if rep.errors:
                    raise SystemExit("\n".join(rep.errors))
                pairs.update(rep.results)
            print(f"pinned input set {wl.variant(index)}", file=sys.stderr)
        results = SweepEngine(jobs=wl.FILL_JOBS, cache=ResultCache(
            tmp / "cache")).run(sorted(suite))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        wl.stop_helpers()
    for (name, config), result in results.items():
        pairs[wl.key(wl.SUITE, name, config)] = wl.stats_of(result)
    print(f"pinned {len(suite)} suite pairs", file=sys.stderr)

    out = {"scale": wl.SCALE, "variants": wl.VARIANTS,
           "variant_stride": wl.VARIANT_STRIDE, "pairs": pairs}
    (HERE / "fingerprints.json").write_text(
        json.dumps(out, sort_keys=True, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
