"""An SMT core: N hardware threads sharing one decoupled front end.

Structural sharing follows the usual SMT fetch organisation: one L1-I
(any :func:`repro.cpu.machine.build_icache` organisation, including UBS)
and one MSHR file serve every thread's demand fetches and FDIP
prefetches; the FTQ capacity is a single pool; the BPU build port serves
one thread per cycle (round-robin over eligible threads) and FDIP's
prefetch budget is interleaved across the threads' pending ranges; the
fetch port delivers for one thread per cycle, arbitrated by a pluggable
policy (``rr`` strict round-robin, ``icount`` fewest fetched-but-
undelivered instructions first).

Each :class:`repro.cpu.machine.HardwareThread` keeps its own BPU, trace,
back-end/ROB, :class:`FrontEndStats` and stall attribution. Threads sit
``tid * THREAD_ADDR_STRIDE`` apart in one address space; the stride only
flips tag bits, so threads contend for the same cache sets (real
conflict misses) while never aliasing each other's blocks.

The cycle loop is the one :class:`repro.cpu.machine.Machine` runs
(:class:`repro.cpu.machine.Core`'s), pinned by ``tests/test_golden_parity.py``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Optional, Sequence, Tuple

from ..cpu.machine import (THREAD_ADDR_STRIDE, Core, build_icache,
                           split_machine_config)
from ..errors import ConfigurationError
from ..memory.icache import InstructionCacheBase
from ..params import MachineParams
from ..stats.counters import FrontEndStats, SimResult
from ..telemetry import Telemetry
from ..trace.arrays import ArrayTrace

__all__ = ["ARBITRATION_POLICIES", "SMTMachine", "THREAD_ADDR_STRIDE",
           "build_smt_machine"]

#: Fetch-arbitration policies understood by :class:`SMTMachine`.
ARBITRATION_POLICIES = ("rr", "icount")


class SMTMachine(Core):
    """N hardware threads (one per trace) on one core with a shared front
    end. With a single trace the machine is exactly
    :class:`repro.cpu.machine.Machine`, except that telemetry events and
    metric names carry the thread."""

    tag_thread_events = True

    def __init__(self, traces: Sequence[ArrayTrace],
                 icache: InstructionCacheBase,
                 params: Optional[MachineParams] = None,
                 telemetry: Optional[Telemetry] = None,
                 policy: str = "rr") -> None:
        if not traces:
            raise ConfigurationError("SMTMachine needs at least one trace")
        if policy not in ARBITRATION_POLICIES:
            raise ConfigurationError(
                f"unknown arbitration policy {policy!r} "
                f"(choose from {ARBITRATION_POLICIES})")
        super().__init__(traces, icache, params, telemetry, policy)

    def metrics(self) -> Dict[str, int]:
        out = {"machine.threads": self.n_threads,
               "ftq.occupancy": self._ftq_occ}
        for t in self.threads:
            prefix = f"thread.{t.tid}"
            out[f"{prefix}.instructions_delivered"] = t.delivered
            out[f"{prefix}.ftq_occupancy"] = t.ftq_occupancy
            out[f"{prefix}.arb_lost_cycles"] = t.arb_lost_cycles
        out.update(super().metrics())
        return out

    def run(self, windows: Sequence[Tuple[int, int]],
            sample_efficiency: bool = True) -> SimResult:
        """Simulate every thread's ``(warmup, measure)`` window.

        One thread: the result of ``Machine.run(warmup, measure)``.
        Co-run: a composite — summed front-end stats and measured
        windows, ``cycles`` the longest per-thread measured span — with
        each thread's own :class:`SimResult` under ``extra["threads"]``
        and no efficiency samples (the shared cache cannot be attributed
        per thread).
        """
        self._simulate(windows, sample_efficiency)
        threads = self.threads
        if len(threads) == 1:
            return threads[0].result
        combined = FrontEndStats()
        for f in fields(FrontEndStats):
            setattr(combined, f.name,
                    sum(getattr(t.stats, f.name) for t in threads))
        return SimResult(
            workload="", config="", frontend=combined, efficiency=None,
            instructions=sum(t.measure for t in threads),
            cycles=max(t.result.cycles for t in threads),
            extra={
                "smt": {
                    "policy": self.policy,
                    "n_threads": self.n_threads,
                    "corun_cycles": self.cycle,
                },
                "threads": [t.result.to_dict() for t in threads],
                "block_count": self.icache.block_count(),
                "dram_accesses": self.hierarchy.dram.accesses,
            },
        )


def build_smt_machine(traces: Sequence[ArrayTrace], config: str,
                      telemetry: Optional[Telemetry] = None,
                      policy: str = "rr") -> SMTMachine:
    """Build an :class:`SMTMachine` from a configuration name.

    Accepts every name :func:`repro.cpu.machine.build_icache` accepts
    plus the machine-level suffixes of
    :func:`repro.cpu.machine.split_machine_config`.
    """
    base, params = split_machine_config(config)
    return SMTMachine(traces, build_icache(base), params=params,
                      telemetry=telemetry, policy=policy)
