"""Small formatting/statistics helpers shared by the experiment drivers."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

from ..trace.workloads import PERF_FAMILIES, workload_names


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


def perf_workloads() -> List[str]:
    """The client/server/SPEC workloads used by the performance figures."""
    out: List[str] = []
    for family in PERF_FAMILIES:
        out.extend(workload_names(family))
    return out


def by_family(names: Sequence[str]) -> Dict[str, List[str]]:
    """Group workload names by their family prefix."""
    groups: Dict[str, List[str]] = {}
    for name in names:
        family = name.rsplit("_", 1)[0]
        groups.setdefault(family, []).append(name)
    return groups


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table with right-padded columns."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([
            f"{v:.3f}" if isinstance(v, float) else str(v) for v in row
        ])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_series(title: str, points: Sequence[Tuple[object, float]],
                  unit: str = "") -> str:
    body = "  ".join(f"{x}:{y:.3f}{unit}" for x, y in points)
    return f"{title}: {body}"
