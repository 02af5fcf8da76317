"""Instruction kinds, and the input record of hand-built traces.

A trace is the instruction stream on the *correct* execution path (like a
ChampSim trace), stored as the columns of a
:class:`~repro.trace.arrays.ArrayTrace`. :class:`Instruction` is only the
record that :meth:`ArrayTrace.from_instructions
<repro.trace.arrays.ArrayTrace.from_instructions>` consumes, so that a
trace can be written out by hand; nothing reads a trace back as
``Instruction`` objects. The branch predictor is responsible for deciding
which instructions the front-end would have predicted correctly.
"""

from __future__ import annotations

from enum import IntEnum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .arrays import ArrayTrace


class InstrKind(IntEnum):
    """Instruction classes distinguished by the timing model."""

    ALU = 0
    MUL = 1
    FP = 2
    LOAD = 3
    STORE = 4
    BR_COND = 5      # conditional direct branch
    JUMP = 6         # unconditional direct jump
    CALL = 7         # direct call
    RET = 8          # return
    BR_IND = 9       # indirect jump
    NOP = 10
    CALL_IND = 11    # indirect call


_BRANCH_KINDS = frozenset(
    (InstrKind.BR_COND, InstrKind.JUMP, InstrKind.CALL, InstrKind.RET,
     InstrKind.BR_IND, InstrKind.CALL_IND)
)
_MEMORY_KINDS = frozenset((InstrKind.LOAD, InstrKind.STORE))

#: ``IS_BRANCH[kind]`` — branch test as a tuple index, for hot loops that
#: cannot afford the ``is_branch`` property + frozenset-membership cost.
IS_BRANCH = tuple(kind in _BRANCH_KINDS for kind in InstrKind)

#: Execution latency (cycles) per instruction kind for the back-end model.
#: Loads are timed through the data-cache hierarchy instead.
EXEC_LATENCY = {
    InstrKind.ALU: 1,
    InstrKind.MUL: 3,
    InstrKind.FP: 4,
    InstrKind.LOAD: 0,   # added to the L1-D access time
    InstrKind.STORE: 1,
    InstrKind.BR_COND: 1,
    InstrKind.JUMP: 1,
    InstrKind.CALL: 1,
    InstrKind.RET: 1,
    InstrKind.BR_IND: 1,
    InstrKind.NOP: 1,
    InstrKind.CALL_IND: 1,
}


def is_branch_kind(kind: InstrKind) -> bool:
    """True for any control-flow instruction."""
    return kind in _BRANCH_KINDS


def is_memory_kind(kind: InstrKind) -> bool:
    """True for loads and stores."""
    return kind in _MEMORY_KINDS


class Instruction:
    """One retired instruction on the correct path, as written by hand
    before :meth:`ArrayTrace.from_instructions
    <repro.trace.arrays.ArrayTrace.from_instructions>` packs it into
    columns.

    Attributes
    ----------
    pc:
        Byte address of the instruction.
    size:
        Instruction length in bytes (4 for the fixed-size RISC ISA, 2-15
        for the synthetic variable-length ISA).
    kind:
        The :class:`InstrKind` class of the instruction.
    taken:
        For branches, whether the branch was taken on this execution.
    target:
        For taken branches, the byte address control transfers to.
    src1, src2:
        Source architectural register ids, or -1 when unused.
    dst:
        Destination architectural register id, or -1 when unused.
    mem_addr:
        Effective address for loads and stores (0 otherwise).
    """

    __slots__ = ("pc", "size", "kind", "taken", "target",
                 "src1", "src2", "dst", "mem_addr")

    def __init__(self, pc: int, size: int, kind: InstrKind, *,
                 taken: bool = False, target: int = 0,
                 src1: int = -1, src2: int = -1, dst: int = -1,
                 mem_addr: int = 0) -> None:
        self.pc = pc
        self.size = size
        self.kind = kind
        self.taken = taken
        self.target = target
        self.src1 = src1
        self.src2 = src2
        self.dst = dst
        self.mem_addr = mem_addr


def validate_trace(trace: "ArrayTrace") -> "ArrayTrace":
    """Check control-flow continuity of a trace and return it.

    Every instruction's ``pc`` must equal the previous instruction's
    next pc (its ``target`` when taken, else its ``end``); violations
    raise :class:`~repro.errors.TraceError`.
    """
    from ..errors import TraceError

    pcs = trace.pc
    for i in range(1, len(trace)):
        expected = trace.target[i - 1] if trace.taken[i - 1] \
            else trace.end[i - 1]
        if pcs[i] != expected:
            raise TraceError(
                f"discontinuity at index {i}: expected pc {expected:#x}, "
                f"got {pcs[i]:#x}"
            )
    return trace
