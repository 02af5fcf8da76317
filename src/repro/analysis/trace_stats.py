"""Static/dynamic trace statistics.

Everything here is simulator-free: pure passes over the columns of an
:class:`~repro.trace.arrays.ArrayTrace`.
Used to calibrate the synthetic workload families against the properties
the paper reports for its production traces, and exposed as a public API
for characterising user-provided traces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict

from ..params import TRANSFER_BLOCK
from ..trace.arrays import ArrayTrace
from ..trace.record import IS_BRANCH, InstrKind


@dataclass(frozen=True)
class FootprintReport:
    """Instruction-footprint summary of a trace."""

    instructions: int
    unique_pcs: int
    unique_blocks: int

    @property
    def footprint_bytes(self) -> int:
        return self.unique_blocks * TRANSFER_BLOCK

    @property
    def footprint_kib(self) -> float:
        return self.footprint_bytes / 1024


def footprint(trace: ArrayTrace) -> FootprintReport:
    """Unique PCs and 64-byte blocks touched by the trace (an instruction
    that straddles a block boundary touches both blocks)."""
    pcs = set(trace.pc)
    blocks = {pc >> 6 for pc in pcs}
    blocks.update((end - 1) >> 6 for end in set(trace.end))
    return FootprintReport(len(trace), len(pcs), len(blocks))


@dataclass(frozen=True)
class InstructionMix:
    """Fraction of instructions per class."""

    fractions: Dict[str, float]

    def __getitem__(self, kind: str) -> float:
        return self.fractions.get(kind, 0.0)

    @property
    def branch_fraction(self) -> float:
        return sum(v for k, v in self.fractions.items()
                   if k in ("BR_COND", "JUMP", "CALL", "RET", "BR_IND",
                            "CALL_IND"))

    @property
    def memory_fraction(self) -> float:
        return self["LOAD"] + self["STORE"]


def instruction_mix(trace: ArrayTrace) -> InstructionMix:
    counts = Counter(trace.kind)
    total = max(1, len(trace))
    return InstructionMix({InstrKind(k).name: v / total
                           for k, v in counts.items()})


@dataclass(frozen=True)
class BranchProfile:
    """Control-flow statistics of a trace."""

    branches: int
    taken: int
    conditional: int
    conditional_taken: int
    static_sites: int
    avg_basic_block_instrs: float

    @property
    def taken_fraction(self) -> float:
        return self.taken / self.branches if self.branches else 0.0


def branch_profile(trace: ArrayTrace) -> BranchProfile:
    branches = taken = cond = cond_taken = 0
    sites = set()
    is_branch = IS_BRANCH
    br_cond = int(InstrKind.BR_COND)
    for pc, kind, was_taken in zip(trace.pc, trace.kind, trace.taken):
        if not is_branch[kind]:
            continue
        branches += 1
        sites.add(pc)
        if was_taken:
            taken += 1
        if kind == br_cond:
            cond += 1
            if was_taken:
                cond_taken += 1
    avg_bb = len(trace) / branches if branches else float(len(trace))
    return BranchProfile(branches, taken, cond, cond_taken, len(sites),
                         avg_bb)


def run_length_profile(trace: ArrayTrace) -> Counter:
    """Distribution of *sequential run lengths in bytes* — how many
    consecutive bytes the front-end fetches between taken branches.

    This is the dynamic quantity whose distribution the UBS way sizes are
    chosen to match (Section IV-D).
    """
    runs: Counter = Counter()
    run_bytes = 0
    prev_end = None
    is_branch = IS_BRANCH
    for pc, size, end, kind, taken, target in zip(
            trace.pc, trace.size, trace.end, trace.kind, trace.taken,
            trace.target):
        if prev_end is not None and pc != prev_end:
            if run_bytes:
                runs[min(run_bytes, 4096)] += 1
            run_bytes = 0
        run_bytes += size
        prev_end = end
        if taken and is_branch[kind]:
            runs[min(run_bytes, 4096)] += 1
            run_bytes = 0
            prev_end = target
    if run_bytes:
        runs[min(run_bytes, 4096)] += 1
    return runs
