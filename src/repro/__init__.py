"""repro — reproduction of the Uneven Block Size (UBS) instruction cache.

Public API for the library reproducing Brunner & Kumar, *Weeding out
Front-End Stalls with Uneven Block Size Instruction Cache* (MICRO 2024):

* :func:`simulate` / :class:`~repro.cpu.machine.Machine` — run a workload
  against any L1-I organisation and collect the paper's metrics;
* :class:`~repro.core.ubs_cache.UBSICache` and friends — the contribution;
* :mod:`repro.trace` — synthetic server/client/SPEC workload suite;
* :mod:`repro.experiments` — one driver per paper table/figure.
"""

from __future__ import annotations

from typing import Optional, Union

from .params import (
    CacheParams,
    CoreParams,
    MachineParams,
    UBSParams,
    conventional_l1i,
    DEFAULT_UBS_WAY_SIZES,
)
from .errors import ConfigurationError, ReproError, SimulationError, TraceError
from .core import (
    PredictorConfig,
    UBSICache,
    UsefulnessPredictor,
    conventional_storage,
    latency_report,
    ubs_storage,
)
from .memory import (
    ConventionalICache,
    DistillationICache,
    InstructionCacheBase,
    MemoryHierarchy,
    SmallBlockICache,
)
from .cpu import Machine, build_icache, build_machine
from .stats import SimResult
from .telemetry import (
    EventTrace,
    StageProfiler,
    StallAccounting,
    Telemetry,
)
from .trace import Workload, get_workload, suite, workload_names

__version__ = "1.0.0"

__all__ = [
    "CacheParams",
    "ConfigurationError",
    "ConventionalICache",
    "CoreParams",
    "DEFAULT_UBS_WAY_SIZES",
    "DistillationICache",
    "EventTrace",
    "InstructionCacheBase",
    "Machine",
    "MachineParams",
    "MemoryHierarchy",
    "PredictorConfig",
    "ReproError",
    "SimResult",
    "SimulationError",
    "SmallBlockICache",
    "StageProfiler",
    "StallAccounting",
    "Telemetry",
    "TraceError",
    "UBSICache",
    "UBSParams",
    "UsefulnessPredictor",
    "Workload",
    "build_icache",
    "build_machine",
    "conventional_l1i",
    "conventional_storage",
    "get_workload",
    "latency_report",
    "simulate",
    "suite",
    "ubs_storage",
    "workload_names",
]


def simulate(workload: Union[str, Workload], config: str = "conv32", *,
             params: Optional[MachineParams] = None,
             sample_efficiency: bool = True,
             telemetry: Optional[Telemetry] = None) -> SimResult:
    """Run one workload against one L1-I configuration.

    ``workload`` is a suite name (e.g. ``"server_003"``), a co-run name
    (``"smt:server_000+client_000"``) or a
    :class:`~repro.trace.workloads.Workload`; ``config`` is a configuration
    name understood by :func:`~repro.cpu.machine.build_icache`, optionally
    with an ``_f<N>`` FTQ-depth suffix (or pass ``params``, not both).
    ``telemetry`` optionally attaches an event recorder and/or stage
    profiler (see :mod:`repro.telemetry`). The experiment runner and
    ``python -m repro run`` take the same path
    (:func:`repro.experiments.runner.pair_machine` and
    :func:`~repro.experiments.runner.run_machine`).
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    from .experiments.runner import pair_machine, run_machine

    traces = [w.generate() for w in workload.component_workloads()]
    machine = pair_machine(workload, config, traces, params, telemetry)
    return run_machine(machine, workload, config, sample_efficiency)
