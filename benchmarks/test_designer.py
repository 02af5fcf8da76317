"""Workload-specific way-size design vs the paper's Table II sizes.

Uses the Section IV-D methodology (mechanised in
``repro.core.designer``): derive way sizes from the *measured* byte-usage
histogram of the server family's baseline runs, then compare the
designed configuration against the paper's hand-picked one.
"""

import pytest

from repro.core.designer import design_way_sizes
from repro.cpu.machine import Machine
from repro.core.ubs_cache import UBSICache
from repro.params import DEFAULT_UBS_WAY_SIZES, UBSParams
from repro.experiments.runner import default_cache, run_pair
from repro.experiments.report import geomean
from repro.trace.workloads import WorkloadFamily, get_workload, workload_names

from _util import emit, run_once

WORKLOADS = tuple(workload_names(WorkloadFamily.SERVER)[:6])


def collect():
    # Aggregate the server family's baseline byte-usage histograms.
    counts = [0] * 65
    for name in WORKLOADS:
        for b, c in enumerate(run_pair(name, "conv32")
                              .extra["byte_usage_counts"]):
            counts[b] += c
    designed = design_way_sizes(counts, n_ways=16, budget=444)

    cache = default_cache()
    speeds = {"table2": [], "designed": []}
    for name in WORKLOADS:
        base = run_pair(name, "conv32")
        speeds["table2"].append(run_pair(name, "ubs").speedup_over(base))
        wl = get_workload(name)
        trace = cache.array_trace_for(wl)
        machine = Machine(trace, UBSICache(UBSParams(way_sizes=designed)))
        result = machine.run(*wl.windows())
        speeds["designed"].append(result.ipc / base.ipc)
    return designed, {k: geomean(v) for k, v in speeds.items()}


@pytest.mark.paper_artifact("designer")
def test_designed_way_sizes_competitive(benchmark):
    designed, speeds = run_once(benchmark, collect)
    lines = [
        "Workload-designed UBS way sizes vs Table II (server subset):",
        f"  Table II: {DEFAULT_UBS_WAY_SIZES}",
        f"  designed: {designed}",
        f"  geomean speedup over conv-32KB: Table II {speeds['table2']:.3f}"
        f"  designed {speeds['designed']:.3f}",
    ]
    emit("designer", "\n".join(lines))

    assert sum(designed) == 444
    # The mechanised design must be competitive with the hand-picked one.
    assert speeds["designed"] > speeds["table2"] - 0.01
