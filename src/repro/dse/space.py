"""Design-space definition for UBS geometry search.

A :class:`DesignPoint` names one front-end design: a way-size vector for
the uneven L1-I, the usefulness-predictor entry count, and the FTQ depth.
A :class:`DesignSpace` bounds which points are admissible — chiefly the
paper's iso-storage discipline: the per-set data budget must stay within
a tolerance of the Table II default's 444 bytes
(:data:`repro.core.configs.DATA_BUDGET_BYTES`), with tag/metadata
overhead accounted exactly through :mod:`repro.core.storage`.

Canonicalisation makes the search space a set, not a sequence: way-size
vectors are kept sorted ascending (the hardware does not care which
logical way is "first"), so permuted vectors dedup to one point, one
journal entry and one result-cache key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..core.configs import (
    DATA_BUDGET_BYTES,
    DEFAULT_WAY_SIZES,
    WAY_CONFIGS,
    WAY_SIZE_STEP,
    check_way_sizes,
)
from ..core.designer import fit_way_sizes
from ..core.storage import (
    ftq_storage_bits,
    predictor_storage_bits,
    ubs_storage,
)
from ..errors import ConfigurationError
from ..params import TRANSFER_BLOCK

#: Table I / Table II defaults for the non-geometry dimensions.
DEFAULT_PREDICTOR_ENTRIES = 64
DEFAULT_FTQ_ENTRIES = 128

#: Iso-storage slack the search enforces by default. Much tighter than the
#: catalogue's documented spread: mutations must stay close to 444 B so
#: the frontier compares organisation, not capacity.
SEARCH_BUDGET_TOLERANCE = 0.05


@dataclass(frozen=True, order=True)
class DesignPoint:
    """One candidate design. Hashable; order is lexicographic, which the
    deterministic reports rely on for stable tie-breaks."""

    way_sizes: Tuple[int, ...]
    predictor_entries: int = DEFAULT_PREDICTOR_ENTRIES
    ftq_entries: int = DEFAULT_FTQ_ENTRIES

    def canonical(self) -> "DesignPoint":
        """The representative of this point's permutation class."""
        ordered = tuple(sorted(self.way_sizes))
        if ordered == self.way_sizes:
            return self
        return replace(self, way_sizes=ordered)

    @property
    def config_name(self) -> str:
        """The simulator configuration name (and result-cache key).

        The Table II default maps to the catalogue name ``ubs`` so the
        search reuses every cached baseline result; any other point gets
        the free-form ``ubs_v...`` encoding understood by
        :func:`repro.cpu.machine.build_machine`.
        """
        point = self.canonical()
        if point == default_point():
            return "ubs"
        name = "ubs_v" + ".".join(str(w) for w in point.way_sizes)
        if point.predictor_entries != DEFAULT_PREDICTOR_ENTRIES:
            name += f"_p{point.predictor_entries}"
        if point.ftq_entries != DEFAULT_FTQ_ENTRIES:
            name += f"_f{point.ftq_entries}"
        return name

    @property
    def data_bytes(self) -> int:
        """Per-set data budget (excluding the predictor way)."""
        return sum(self.way_sizes)


def default_point() -> DesignPoint:
    """The paper's Table II design point."""
    return DesignPoint(way_sizes=DEFAULT_WAY_SIZES)


def point_from_config(name: str) -> DesignPoint:
    """Inverse of :attr:`DesignPoint.config_name` (for journal tooling)."""
    if name == "ubs":
        return default_point()
    if not name.startswith("ubs_v"):
        raise ConfigurationError(
            f"not a design-point configuration name: {name!r}"
        )
    fields = name[len("ubs_v"):].split("_")
    try:
        sizes = tuple(int(s) for s in fields[0].split("."))
    except ValueError:
        raise ConfigurationError(
            f"malformed way-size vector in {name!r}"
        ) from None
    predictor = DEFAULT_PREDICTOR_ENTRIES
    ftq = DEFAULT_FTQ_ENTRIES
    for extra in fields[1:]:
        if extra.startswith("p") and extra[1:].isdigit():
            predictor = int(extra[1:])
        elif extra.startswith("f") and extra[1:].isdigit():
            ftq = int(extra[1:])
        else:
            raise ConfigurationError(
                f"unknown modifier {extra!r} in {name!r}"
            )
    return DesignPoint(sizes, predictor, ftq)


def point_storage_bits(point: DesignPoint, sets: int = 64,
                       granularity: int = WAY_SIZE_STEP) -> int:
    """Total storage of a design point in bits.

    Uneven data array with its tags/LRU/start offsets (Table III
    accounting via :func:`repro.core.storage.ubs_storage`), plus the
    usefulness predictor sized to the point's entry count and the FTQ
    sizing model — so points trading predictor or FTQ capacity against
    way capacity land on one comparable axis.
    """
    arrays = ubs_storage(point.way_sizes, sets=sets, granularity=granularity,
                         predictor_ways=0)
    return (arrays.total_bits
            + predictor_storage_bits(point.predictor_entries, granularity)
            + ftq_storage_bits(point.ftq_entries))


@dataclass(frozen=True)
class DesignSpace:
    """Admissible region and generators for the search strategies."""

    budget: int = DATA_BUDGET_BYTES
    budget_tolerance: float = SEARCH_BUDGET_TOLERANCE
    way_count_choices: Tuple[int, ...] = (10, 12, 14, 16, 18)
    size_step: int = WAY_SIZE_STEP
    predictor_choices: Tuple[int, ...] = (DEFAULT_PREDICTOR_ENTRIES,)
    ftq_choices: Tuple[int, ...] = (DEFAULT_FTQ_ENTRIES,)
    sets: int = 64

    def __post_init__(self) -> None:
        if not self.way_count_choices:
            raise ConfigurationError("way_count_choices is empty")
        if self.budget_tolerance < 0:
            raise ConfigurationError("budget tolerance must be >= 0")
        for entries in self.predictor_choices:
            if entries <= 0 or entries & (entries - 1):
                raise ConfigurationError(
                    f"predictor entries must be powers of two, "
                    f"got {entries} in {self.predictor_choices}"
                )
        for entries in self.ftq_choices:
            if entries < 1:
                raise ConfigurationError(
                    f"FTQ choices must be positive, got {entries}"
                )

    # -- membership ---------------------------------------------------------

    def canonicalise(self, point: DesignPoint) -> DesignPoint:
        return point.canonical()

    def validate(self, point: DesignPoint) -> None:
        """Raise :class:`ConfigurationError` naming what is wrong."""
        check_way_sizes(point.canonical().way_sizes, budget=self.budget,
                        tolerance=self.budget_tolerance,
                        granularity=self.size_step)
        n_ways = len(point.way_sizes)
        lo, hi = min(self.way_count_choices), max(self.way_count_choices)
        if not lo <= n_ways <= hi:
            raise ConfigurationError(
                f"way count {n_ways} outside {lo}..{hi}: "
                f"way sizes {tuple(point.way_sizes)}"
            )
        if point.predictor_entries not in self.predictor_choices:
            raise ConfigurationError(
                f"predictor entries {point.predictor_entries} not in "
                f"{self.predictor_choices}"
            )
        if point.ftq_entries not in self.ftq_choices:
            raise ConfigurationError(
                f"FTQ depth {point.ftq_entries} not in {self.ftq_choices}"
            )

    def is_valid(self, point: DesignPoint) -> bool:
        try:
            self.validate(point)
        except ConfigurationError:
            return False
        return True

    # -- generators ---------------------------------------------------------

    def grid(self) -> List[DesignPoint]:
        """The exhaustive "small space": every catalogued way vector
        (Table II default + the Fig. 16 catalogue) crossed with the
        predictor/FTQ choices, deduped and deterministically ordered."""
        vectors = [DEFAULT_WAY_SIZES]
        vectors += [WAY_CONFIGS[key] for key in sorted(WAY_CONFIGS)]
        points = []
        seen = set()
        for sizes, pred, ftq in itertools.product(
                vectors, self.predictor_choices, self.ftq_choices):
            point = DesignPoint(tuple(sorted(sizes)), pred, ftq)
            if point not in seen:
                seen.add(point)
                points.append(point)
        return points

    def sample(self, rng) -> Optional[DesignPoint]:
        """One random valid point (``None`` if repair cannot reach the
        budget, which only happens for adversarial space parameters)."""
        step = self.size_step
        choices = list(range(step, TRANSFER_BLOCK + 1, step))
        for _attempt in range(64):
            n_ways = rng.choice(self.way_count_choices)
            sizes = sorted(rng.choice(choices) for _ in range(n_ways))
            fitted = fit_way_sizes(sizes, self.budget, step)
            point = DesignPoint(
                fitted,
                rng.choice(self.predictor_choices),
                rng.choice(self.ftq_choices),
            )
            if self.is_valid(point):
                return point
        return None

    def neighbors(self, point: DesignPoint) -> List[DesignPoint]:
        """Every admissible one-step mutation of ``point``, deduped and
        deterministically ordered.

        Mutations: one way grown/shrunk by one granule (moves the budget
        within the tolerance band), one granule transferred between two
        ways (exactly iso-budget), and one step along the predictor or
        FTQ choice lists.
        """
        point = point.canonical()
        step = self.size_step
        sizes = point.way_sizes
        candidates: List[DesignPoint] = []

        def add(way_sizes: Sequence[int], pred: int, ftq: int) -> None:
            candidates.append(
                DesignPoint(tuple(sorted(way_sizes)), pred, ftq))

        for i in range(len(sizes)):
            for delta in (step, -step):
                mutated = list(sizes)
                mutated[i] += delta
                add(mutated, point.predictor_entries, point.ftq_entries)
        for i in range(len(sizes)):
            for j in range(len(sizes)):
                if i == j:
                    continue
                mutated = list(sizes)
                mutated[i] -= step
                mutated[j] += step
                add(mutated, point.predictor_entries, point.ftq_entries)
        for axis_choices, index in ((self.predictor_choices, 0),
                                    (self.ftq_choices, 1)):
            ordered = sorted(axis_choices)
            current = (point.predictor_entries, point.ftq_entries)[index]
            pos = ordered.index(current) if current in ordered else -1
            for adjacent in (pos - 1, pos + 1):
                if pos < 0 or not 0 <= adjacent < len(ordered):
                    continue
                pred, ftq = point.predictor_entries, point.ftq_entries
                if index == 0:
                    pred = ordered[adjacent]
                else:
                    ftq = ordered[adjacent]
                add(sizes, pred, ftq)

        unique: List[DesignPoint] = []
        seen = {point}
        for candidate in candidates:
            if candidate not in seen and self.is_valid(candidate):
                seen.add(candidate)
                unique.append(candidate)
        unique.sort()
        return unique

