"""Host-side profiling of the simulator itself.

:class:`StageProfiler` measures where *wall-clock* time goes inside a
simulation run — per pipeline stage (BPU run-ahead, FDIP, fills, fetch
lookups, back-end timing) — and derives the throughput figures
(simulated cycles per second, simulated instructions per second) that the
ROADMAP's performance work needs as a baseline.

Stages are instrumented by wrapping the stage callables
(:meth:`StageProfiler.wrap`), so a run without a profiler attached pays
nothing. The wrapping adds two ``perf_counter`` calls per stage
invocation, which inflates absolute wall time somewhat; the *relative*
per-stage shares and the unprofiled total reported by
:class:`~repro.cpu.machine.Machine` stay meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Optional

#: Canonical stage names in pipeline order.
STAGES = ("fills", "bpu", "fdip", "fetch", "backend")


@dataclass
class ProfileReport:
    """Wall-clock accounting of one simulation run."""

    wall_seconds: float
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    stage_calls: Dict[str, int] = field(default_factory=dict)
    cycles: int = 0
    instructions: int = 0

    @property
    def cycles_per_sec(self) -> float:
        return self.cycles / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def instrs_per_sec(self) -> float:
        return (self.instructions / self.wall_seconds
                if self.wall_seconds else 0.0)

    @property
    def other_seconds(self) -> float:
        """Main-loop time not attributed to any wrapped stage."""
        return max(0.0, self.wall_seconds - sum(self.stage_seconds.values()))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "wall_seconds": self.wall_seconds,
            "stage_seconds": dict(self.stage_seconds),
            "stage_calls": dict(self.stage_calls),
            "cycles": self.cycles,
            "instructions": self.instructions,
            "cycles_per_sec": self.cycles_per_sec,
            "instrs_per_sec": self.instrs_per_sec,
        }

    def format(self) -> str:
        lines = [
            f"simulated {self.cycles} cycles / {self.instructions} "
            f"instructions in {self.wall_seconds:.3f}s host time",
            f"throughput: {self.cycles_per_sec:,.0f} cycles/s, "
            f"{self.instrs_per_sec:,.0f} instrs/s",
            "per-stage host time:",
        ]
        ordered = [s for s in STAGES if s in self.stage_seconds]
        ordered += [s for s in self.stage_seconds if s not in STAGES]
        for stage in ordered:
            seconds = self.stage_seconds[stage]
            calls = self.stage_calls.get(stage, 0)
            share = seconds / self.wall_seconds if self.wall_seconds else 0.0
            lines.append(f"  {stage:10s} {seconds:8.3f}s ({share:6.1%})  "
                         f"{calls:10d} calls")
        lines.append(f"  {'other':10s} {self.other_seconds:8.3f}s")
        return "\n".join(lines)


class StageProfiler:
    """Accumulates wall-clock time per named simulation stage."""

    def __init__(self) -> None:
        self.stage_seconds: Dict[str, float] = {}
        self.stage_calls: Dict[str, int] = {}
        self._started: Optional[float] = None
        self.wall_seconds = 0.0

    def wrap(self, stage: str, fn: Callable) -> Callable:
        """Return ``fn`` instrumented to charge its runtime to ``stage``."""
        self.stage_seconds.setdefault(stage, 0.0)
        self.stage_calls.setdefault(stage, 0)
        seconds = self.stage_seconds
        calls = self.stage_calls

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[stage] += perf_counter() - t0
                calls[stage] += 1

        return timed

    def charge(self, stage: str, seconds: float) -> None:
        """Charge one call of ``seconds`` to ``stage`` — for host-side
        stages timed by their caller rather than by :meth:`wrap`."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) \
            + seconds
        self.stage_calls[stage] = self.stage_calls.get(stage, 0) + 1

    def start(self) -> None:
        self._started = perf_counter()

    def stop(self) -> None:
        if self._started is not None:
            self.wall_seconds += perf_counter() - self._started
            self._started = None

    def report(self, cycles: int = 0,
               instructions: int = 0) -> ProfileReport:
        return ProfileReport(
            wall_seconds=self.wall_seconds,
            stage_seconds=dict(self.stage_seconds),
            stage_calls=dict(self.stage_calls),
            cycles=cycles,
            instructions=instructions,
        )
