"""Way-size catalogues for UBS configurations.

Includes the Table II default plus the way-count/size sweep of Fig. 16
(config1/config2 per way count; the 14-way lists are the ones printed in
the paper, the others follow the same construction: config1 keeps more
small ways, config2 spreads sizes more evenly). All configurations keep a
per-set data budget close to the default's 444 bytes so the sweep compares
organisation, not capacity.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Sequence, Tuple

from ..errors import ConfigurationError
from ..params import DEFAULT_UBS_WAY_SIZES, TRANSFER_BLOCK, UBSParams

DEFAULT_WAY_SIZES = DEFAULT_UBS_WAY_SIZES

#: Per-set data budget of the Table II default (the way sizes sum to 444
#: bytes; the 64-byte predictor way is accounted separately).
DATA_BUDGET_BYTES = sum(DEFAULT_UBS_WAY_SIZES)

#: Relative budget slack the Fig. 16 catalogue keeps around the default:
#: the catalogued lists range from 372 B (-16.2%) to 484 B (+9.0%), so a
#: catalogue entry is "iso-storage" within this documented tolerance.
CATALOG_BUDGET_TOLERANCE = 0.17

#: Smallest catalogued way size; all lists use multiples of this.
WAY_SIZE_STEP = 4

#: (n_ways, config) -> way sizes. The 14-way entries are quoted verbatim
#: from Section VI-K.
WAY_CONFIGS: Dict[Tuple[int, int], Tuple[int, ...]] = {
    (10, 1): (8, 12, 16, 24, 32, 36, 52, 64, 64, 64),
    (10, 2): (8, 16, 24, 32, 36, 52, 56, 64, 64, 64),
    (12, 1): (4, 8, 8, 12, 16, 24, 32, 36, 52, 64, 64, 64),
    (12, 2): (4, 8, 16, 24, 28, 32, 36, 44, 52, 64, 64, 64),
    (14, 1): (4, 4, 8, 12, 16, 24, 28, 28, 32, 36, 36, 64, 64, 64),
    (14, 2): (4, 4, 8, 16, 24, 28, 32, 36, 40, 44, 52, 60, 64, 64),
    (16, 1): DEFAULT_WAY_SIZES,
    (16, 2): (4, 4, 8, 8, 12, 16, 20, 24, 28, 32, 36, 40, 48, 56, 64, 64),
    (18, 1): (4, 4, 4, 8, 8, 8, 12, 12, 16, 20, 24, 28, 32, 36, 36, 48, 64, 64),
    (18, 2): (4, 4, 8, 8, 8, 12, 12, 16, 20, 24, 28, 32, 36, 40, 52, 56, 60, 64),
}


def data_budget(way_sizes: Sequence[int]) -> int:
    """Per-set data bytes of a way-size list (excluding the predictor way)."""
    return sum(way_sizes)


def check_way_sizes(way_sizes: Sequence[int], *,
                    budget: int = DATA_BUDGET_BYTES,
                    tolerance: float = CATALOG_BUDGET_TOLERANCE,
                    granularity: int = WAY_SIZE_STEP) -> None:
    """Validate a way-size list against the catalogue invariants.

    Raises :class:`ConfigurationError` naming the offending vector and its
    computed budget, so callers never have to reconstruct either. Checks:
    sizes monotone non-decreasing, every size a multiple of ``granularity``
    in ``granularity..64``, and the per-set data budget within
    ``tolerance`` of ``budget`` bytes. Shared by the hand-written
    catalogue tests and :mod:`repro.dse.space`, so generated and
    transcribed configurations obey one validator.
    """
    sizes = tuple(way_sizes)
    if not sizes:
        raise ConfigurationError("way-size vector is empty")
    if any(w < granularity or w > TRANSFER_BLOCK or w % granularity
           for w in sizes):
        raise ConfigurationError(
            f"way sizes must be multiples of {granularity} in "
            f"{granularity}..{TRANSFER_BLOCK}: got {sizes}"
        )
    if list(sizes) != sorted(sizes):
        raise ConfigurationError(
            f"way sizes must be monotone non-decreasing: got {sizes}"
        )
    total = data_budget(sizes)
    lo = budget * (1 - tolerance)
    hi = budget * (1 + tolerance)
    if not lo <= total <= hi:
        raise ConfigurationError(
            f"per-set data budget {total} B outside "
            f"{budget} B ±{tolerance:.0%} ({lo:.0f}..{hi:.0f} B): "
            f"way sizes {sizes}"
        )


def way_config(n_ways: int, config: int = 1) -> Tuple[int, ...]:
    """Look up a way-size list from the Fig. 16 catalogue."""
    try:
        return WAY_CONFIGS[(n_ways, config)]
    except KeyError as exc:
        available = sorted({n for n, _c in WAY_CONFIGS})
        raise ConfigurationError(
            f"no catalogued UBS configuration with {n_ways} ways "
            f"(config{config}); catalogued way counts: {available}, "
            f"configs 1 and 2"
        ) from exc


def ubs_params_for_budget(budget: int,
                          base: UBSParams = UBSParams()) -> UBSParams:
    """UBS parameters whose data storage targets ``budget`` bytes.

    Mirrors Section VI-F: the way-size profile is kept and the set count is
    scaled (64 sets ~ the default ~32 KB-budget point). Non-power-of-two
    budgets such as 20 KB are approximated by the closest not-larger
    power-of-two set count with a proportionally trimmed way list. A
    budget smaller than one set raises :class:`ConfigurationError`.
    """
    per_set = base.data_bytes_per_set
    if budget < per_set:
        raise ConfigurationError(
            f"budget {budget} smaller than one UBS set ({per_set} bytes)")
    exact_sets = budget / per_set
    sets = 1
    while sets * 2 <= exact_sets:
        sets *= 2
    remainder = budget - sets * per_set
    if remainder >= sets * per_set:  # pragma: no cover - defensive
        raise ConfigurationError(
            f"set scaling failed for budget {budget} B: {sets} sets x "
            f"{per_set} B/set leaves {remainder} B over with way sizes "
            f"{base.way_sizes}"
        )
    way_sizes = base.way_sizes
    if remainder > 0.25 * sets * per_set:
        # Budgets like 20 KB sit between power-of-two points; widen the
        # ways instead (add extra 64B ways) to approach the budget.
        extra_per_set = remainder // sets
        extra_ways = int(extra_per_set // 64)
        if extra_ways:
            way_sizes = way_sizes + (64,) * extra_ways
    return replace(base, sets=sets, predictor_sets=sets, way_sizes=way_sizes)
