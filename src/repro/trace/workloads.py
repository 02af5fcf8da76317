"""The workload suite — synthetic analogues of the paper's trace sets.

Four main families mirror Figure 1's trace sets, plus a held-out "cvp"
family mirroring the CVP-1 traces of Section VI-L:

* ``google_*``  — variable-length ISA, multi-hundred-KB instruction
  footprints, profile-guided-like layout (less hot/cold interleaving, so
  higher baseline storage efficiency, as in Fig. 2).
* ``server_*``  — fixed 4-byte ISA, large footprints, deep call stacks,
  heavy hot/cold interleaving; the paper's primary target.
* ``client_*``  — moderate footprints, loopier code, low L1-I MPKI.
* ``spec_*``    — small footprints dominated by long loops.
* ``cvp_srv_* / cvp_int_* / cvp_fp_*`` — a second, independently seeded
  family used only by the Section VI-L experiment (traces "not used in the
  design process").

Each workload fixes a :class:`~repro.trace.synthesis.SynthesisSpec` plus the
simulation window. Window lengths are the paper's 50M/50M scaled down by
~250x for pure-Python simulation (see DESIGN.md §4) and can be scaled with
the ``REPRO_SCALE`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .arrays import ArrayTrace
from .synthesis import SynthesisSpec, generate_trace

#: Default instruction windows (warm-up, measured) before scaling.
DEFAULT_WARMUP = 50_000
DEFAULT_MEASURE = 150_000


def scale_factor() -> float:
    """Window scale from the ``REPRO_SCALE`` environment variable."""
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"REPRO_SCALE={raw!r} is not a number") from exc
    if value <= 0:
        raise ConfigurationError("REPRO_SCALE must be positive")
    return value


class WorkloadFamily:
    """Family name constants."""

    GOOGLE = "google"
    SERVER = "server"
    CLIENT = "client"
    SPEC = "spec"
    CVP_SERVER = "cvp_srv"
    CVP_INT = "cvp_int"
    CVP_FP = "cvp_fp"


#: Families used by the paper's performance figures (Google traces have no
#: dependency information, so the paper excludes them from timing results).
PERF_FAMILIES = (WorkloadFamily.CLIENT, WorkloadFamily.SERVER,
                 WorkloadFamily.SPEC)


@dataclass(frozen=True)
class Workload:
    """One named workload: a synthesis spec plus its simulation window."""

    name: str
    family: str
    spec: SynthesisSpec
    warmup: int = DEFAULT_WARMUP
    measure: int = DEFAULT_MEASURE

    def windows(self) -> Tuple[int, int]:
        """(warmup, measure) instruction counts after REPRO_SCALE."""
        s = scale_factor()
        return max(1000, int(self.warmup * s)), max(2000, int(self.measure * s))

    def generate(self) -> ArrayTrace:
        """Generate the full (warmup + measure) instruction trace."""
        warmup, measure = self.windows()
        return generate_trace(self.spec, warmup + measure)

    def component_workloads(self) -> List["Workload"]:
        """The workloads run as hardware threads, one trace each."""
        return [self]


# -- imported (ChampSim) workloads -------------------------------------------

#: Workload-name prefix selecting an on-disk ChampSim trace file.
IMPORT_PREFIX = "champsim:"

#: File extensions recognised as ChampSim traces (optionally followed by
#: a ``.gz``/``.xz`` compression suffix).
CHAMPSIM_SUFFIXES = (".champsim", ".champsimtrace")

#: Memoised instruction counts of imported traces (windows() needs the
#: length without re-reading the file on every call).
_IMPORT_LENGTHS: Dict[str, int] = {}


def champsim_trace_path(name: str) -> Optional[str]:
    """The trace-file path behind an imported-workload ``name``, or
    ``None`` when the name is not an import (``champsim:<path>`` prefix,
    or a bare path with a recognised ChampSim extension)."""
    if name.startswith(IMPORT_PREFIX):
        return name[len(IMPORT_PREFIX):]
    stem = name
    for compression in (".gz", ".xz"):
        if stem.endswith(compression):
            stem = stem[:-len(compression)]
    if stem.endswith(CHAMPSIM_SUFFIXES):
        return name
    return None


def is_imported_workload(name: str) -> bool:
    return champsim_trace_path(name) is not None


@dataclass(frozen=True)
class ImportedWorkload(Workload):
    """A workload backed by an on-disk ChampSim trace instead of the
    synthesiser. The simulation window covers the whole imported trace
    (1:3 warmup:measure split, ignoring ``REPRO_SCALE`` — a real trace
    has a fixed length)."""

    path: str = ""

    def windows(self) -> Tuple[int, int]:
        n = self._length()
        warmup = max(1, n // 4)
        return warmup, max(1, n - warmup)

    def _length(self) -> int:
        n = _IMPORT_LENGTHS.get(self.path)
        if n is not None:
            return n
        p = Path(self.path)
        if p.suffix not in (".gz", ".xz"):
            # Fixed 64-byte records: the count is just the file size.
            n = p.stat().st_size // 64
            _IMPORT_LENGTHS[self.path] = n
            return n
        return len(self.generate())

    def generate(self) -> ArrayTrace:
        from .champsim import read_champsim

        out = read_champsim(self.path)
        if not out:
            raise ConfigurationError(
                f"ChampSim trace {self.path!r} is empty")
        _IMPORT_LENGTHS[self.path] = len(out)
        return out


def imported_workload(name: str) -> ImportedWorkload:
    """Materialise an imported workload from a ``champsim:<path>`` (or
    extension-detected) workload name."""
    path = champsim_trace_path(name)
    if path is None:
        raise ConfigurationError(f"{name!r} is not a ChampSim trace name")
    if not Path(path).exists():
        raise ConfigurationError(f"ChampSim trace {path!r} does not exist")
    # The workload keeps exactly the name it was requested under: the
    # result cache loads by the raw pair name and stores by
    # ``workload.name``, so canonicalising here would split the two.
    # The placeholder spec only feeds scheduling heuristics (the sweep
    # engine weighs pairs by spec.n_functions); timing never reads it.
    return ImportedWorkload(name=name, family="imported",
                            spec=SynthesisSpec(name=name), path=path)


# -- SMT co-run workloads -----------------------------------------------------

#: Workload-name prefix selecting an SMT co-run of two named workloads.
SMT_PREFIX = "smt:"

#: Fetch-arbitration policies an SMT workload name may carry (kept as a
#: literal so this module never imports :mod:`repro.smt`, which imports
#: the experiment layers back).
SMT_POLICIES = ("rr", "icount")


def is_smt_workload(name: str) -> bool:
    return name.startswith(SMT_PREFIX)


@dataclass(frozen=True)
class SMTWorkload(Workload):
    """A co-run of component workloads on one SMT core.

    Named ``smt:<a>+<b>[@<policy>]``; the components are ordinary suite
    workloads simulated as hardware threads 0..N-1 of one
    :class:`repro.smt.SMTMachine`. The placeholder spec only feeds the
    sweep engine's scheduling heuristics (cost ~ summed footprints);
    :meth:`generate` is unsupported — there is no single merged stream.
    """

    components: Tuple[str, ...] = ()
    policy: str = "rr"

    def component_workloads(self) -> List[Workload]:
        """One thread per component workload."""
        return [get_workload(c) for c in self.components]

    def generate(self) -> ArrayTrace:
        raise ConfigurationError(
            f"SMT workload {self.name!r} has no single trace; simulate "
            "its components through repro.smt.SMTMachine")


def smt_workload(name: str) -> SMTWorkload:
    """Parse an ``smt:<a>+<b>[@<policy>]`` co-run workload name."""
    if not is_smt_workload(name):
        raise ConfigurationError(f"{name!r} is not an SMT workload name")
    body = name[len(SMT_PREFIX):]
    policy = "rr"
    if "@" in body:
        body, policy = body.rsplit("@", 1)
        if policy not in SMT_POLICIES:
            raise ConfigurationError(
                f"unknown SMT arbitration policy {policy!r} in {name!r} "
                f"(choose from {SMT_POLICIES})")
    components = tuple(c for c in body.split("+") if c)
    if len(components) < 2:
        raise ConfigurationError(
            f"SMT workload {name!r} needs at least two '+'-separated "
            "components")
    resolved = []
    for comp in components:
        if is_smt_workload(comp):
            raise ConfigurationError(
                f"nested SMT workload {comp!r} in {name!r}")
        resolved.append(get_workload(comp))
    n_functions = sum(w.spec.n_functions for w in resolved)
    return SMTWorkload(name=name, family="smt",
                       spec=SynthesisSpec(name=name,
                                          n_functions=n_functions),
                       components=components, policy=policy)


def _server_spec(index: int, *, seed_base: int = 1000) -> SynthesisSpec:
    """Server workloads span a wide footprint range so that some are
    violently front-end bound and others only mildly (Fig. 8's spread)."""
    n_functions = (900, 1300, 1800, 2400, 3000, 3600)[index % 6]
    n_functions += 97 * (index // 6)
    return SynthesisSpec(
        name=f"server_{index:03d}",
        isa="fixed4",
        seed=seed_base + index,
        n_functions=n_functions,
        units_per_function_mean=5.5,
        hot_block_instrs_mean=3.2,
        cold_block_instrs_mean=11.0,
        cold_blocks_max=3,
        p_unit_cold=0.46,
        p_unit_ifelse=0.12,
        p_unit_loop=0.07,
        p_unit_call=0.14,
        p_unit_vcall=0.01,
        p_unit_straight=0.04,
        straight_block_instrs_mean=24.0,
        loop_trips_mean=7.0,
        n_entry_points=min(96, n_functions // 12),
        zipf_alpha=0.55 + 0.05 * (index % 4),
        data_footprint=512 << 10,
        p_stack_access=0.6,
        p_src_recent=0.4,
    )


def _google_spec(index: int) -> SynthesisSpec:
    return SynthesisSpec(
        name=f"google_{index:03d}",
        isa="variable",
        seed=2000 + index,
        n_functions=(1000, 1500, 2000, 2600, 3200, 2200)[index % 6],
        units_per_function_mean=6.0,
        hot_block_instrs_mean=3.5,
        cold_block_instrs_mean=9.0,
        p_unit_cold=0.40,           # still less interleaving than server
        p_unit_ifelse=0.14,
        p_unit_loop=0.08,
        p_unit_call=0.16,
        p_unit_vcall=0.015,
        p_unit_straight=0.05,
        straight_block_instrs_mean=42.0,
        loop_trips_mean=6.0,
        n_entry_points=64,
        zipf_alpha=0.6,
        data_footprint=512 << 10,
        p_stack_access=0.6,
        p_src_recent=0.4,
    )


def _client_spec(index: int) -> SynthesisSpec:
    return SynthesisSpec(
        name=f"client_{index:03d}",
        isa="fixed4",
        seed=3000 + index,
        n_functions=(560, 700, 840, 980, 1120, 760)[index % 6],
        units_per_function_mean=5.5,
        hot_block_instrs_mean=4.0,
        cold_block_instrs_mean=12.0,
        cold_blocks_max=2,
        p_unit_cold=0.40,
        p_unit_ifelse=0.15,
        p_unit_loop=0.16,
        p_unit_call=0.18,
        p_unit_vcall=0.02,
        p_unit_straight=0.05,
        loop_trips_mean=14.0,
        n_entry_points=24,
        zipf_alpha=0.95,
        data_footprint=256 << 10,
        p_stack_access=0.65,
        p_src_recent=0.4,
    )


def _spec_spec(index: int) -> SynthesisSpec:
    return SynthesisSpec(
        name=f"spec_{index:03d}",
        isa="fixed4",
        seed=4000 + index,
        n_functions=(300, 360, 420, 480, 540, 390)[index % 6],
        units_per_function_mean=6.0,
        hot_block_instrs_mean=5.0,
        cold_block_instrs_mean=12.0,
        p_unit_cold=0.36,
        p_unit_ifelse=0.13,
        p_unit_loop=0.20,
        p_unit_call=0.16,
        p_unit_straight=0.05,
        straight_block_instrs_mean=48.0,
        loop_trips_mean=24.0,
        n_entry_points=12,
        zipf_alpha=0.9,
        data_footprint=2 << 20,
        p_stack_access=0.55,
        p_src_recent=0.45,
    )


def _cvp_spec(kind: str, index: int) -> SynthesisSpec:
    """Held-out family (Section VI-L): same generator, fresh seeds and
    deliberately different parameter draws from the design-time families."""
    if kind == WorkloadFamily.CVP_SERVER:
        base = _server_spec(index, seed_base=9000)
        return replace(base, name=f"cvp_srv_{index:03d}", seed=9100 + index,
                       n_functions=1100 + 650 * index, p_unit_cold=0.42,
                       loop_trips_mean=6.5, zipf_alpha=0.6)
    if kind == WorkloadFamily.CVP_INT:
        base = _spec_spec(index)
        return replace(base, name=f"cvp_int_{index:03d}", seed=9300 + index,
                       n_functions=260 + 120 * index, loop_trips_mean=18.0,
                       p_unit_ifelse=0.18, p_unit_loop=0.15)
    if kind == WorkloadFamily.CVP_FP:
        base = _spec_spec(index)
        return replace(base, name=f"cvp_fp_{index:03d}", seed=9500 + index,
                       n_functions=200 + 110 * index, loop_trips_mean=40.0,
                       p_unit_straight=0.12, p_unit_cold=0.28)
    raise ConfigurationError(f"unknown cvp family {kind!r}")


_FAMILY_SIZES = {
    WorkloadFamily.GOOGLE: 6,
    WorkloadFamily.SERVER: 12,
    WorkloadFamily.CLIENT: 6,
    WorkloadFamily.SPEC: 6,
    WorkloadFamily.CVP_SERVER: 4,
    WorkloadFamily.CVP_INT: 3,
    WorkloadFamily.CVP_FP: 2,
}

_SPEC_BUILDERS = {
    WorkloadFamily.GOOGLE: _google_spec,
    WorkloadFamily.SERVER: _server_spec,
    WorkloadFamily.CLIENT: _client_spec,
    WorkloadFamily.SPEC: _spec_spec,
    WorkloadFamily.CVP_SERVER: lambda i: _cvp_spec(WorkloadFamily.CVP_SERVER, i),
    WorkloadFamily.CVP_INT: lambda i: _cvp_spec(WorkloadFamily.CVP_INT, i),
    WorkloadFamily.CVP_FP: lambda i: _cvp_spec(WorkloadFamily.CVP_FP, i),
}


def all_families() -> Tuple[str, ...]:
    return tuple(_FAMILY_SIZES)


def suite(families: Optional[Sequence[str]] = None) -> List[Workload]:
    """Return the workloads of the requested families (default: the four
    main families of Figure 1)."""
    if families is None:
        families = (WorkloadFamily.GOOGLE, WorkloadFamily.SERVER,
                    WorkloadFamily.CLIENT, WorkloadFamily.SPEC)
    workloads: List[Workload] = []
    for family in families:
        if family not in _FAMILY_SIZES:
            raise ConfigurationError(f"unknown workload family {family!r}")
        builder = _SPEC_BUILDERS[family]
        for index in range(_FAMILY_SIZES[family]):
            spec = builder(index)
            workloads.append(Workload(name=spec.name, family=family, spec=spec))
    return workloads


_BY_NAME: Dict[str, Workload] = {}


def _index() -> Dict[str, Workload]:
    if not _BY_NAME:
        for wl in suite(all_families()):
            _BY_NAME[wl.name] = wl
    return _BY_NAME


def workload_names(family: Optional[str] = None) -> List[str]:
    """All workload names, optionally restricted to one family."""
    names = list(_index())
    if family is None:
        return names
    return [n for n in names if _index()[n].family == family]


def get_workload(name: str) -> Workload:
    """Look a workload up by name (e.g. ``"server_003"``). Names of the
    form ``champsim:<path>`` (or bare paths with a ChampSim trace
    extension) resolve to an :class:`ImportedWorkload` backed by that
    file, and ``smt:<a>+<b>[@policy]`` names to an :class:`SMTWorkload`
    co-run, instead of the synthetic suite."""
    if is_smt_workload(name):
        return smt_workload(name)
    if is_imported_workload(name):
        return imported_workload(name)
    try:
        return _index()[name]
    except KeyError as exc:
        raise ConfigurationError(f"unknown workload {name!r}") from exc
