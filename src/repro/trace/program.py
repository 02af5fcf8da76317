"""Static program model used by the synthetic workload generator.

A :class:`Program` is a set of :class:`Function` objects, each a list of
:class:`BasicBlock` objects laid out contiguously in the address space —
the same structural model AsmDB-style studies use to describe server
binaries (hot basic blocks interleaved with cold regions at sub-cache-block
granularity). The :class:`~repro.trace.synthesis.TraceWalker` executes this
model to emit an instruction trace.
"""

from __future__ import annotations

from enum import IntEnum
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .record import InstrKind

#: Base virtual address of the code segment.
CODE_BASE = 0x0040_0000
#: Functions are aligned to this many bytes (typical linker behaviour).
FUNCTION_ALIGN = 16


class TermKind(IntEnum):
    """How control leaves a basic block."""

    FALL = 0    # falls through to ``fall_succ`` (no branch instruction)
    COND = 1    # conditional branch: ``taken_succ`` vs ``fall_succ``
    LOOP = 2    # conditional back-edge executed ``loop_mean`` times on average
    JUMP = 3    # unconditional direct jump to ``taken_succ``
    CALL = 4    # direct call to function ``callee``; resumes at ``fall_succ``
    ICALL = 5   # indirect call to one of ``callees``; resumes at ``fall_succ``
    RET = 6     # return to the caller


_TERM_INSTR = {
    TermKind.COND: InstrKind.BR_COND,
    TermKind.LOOP: InstrKind.BR_COND,
    TermKind.JUMP: InstrKind.JUMP,
    TermKind.CALL: InstrKind.CALL,
    TermKind.ICALL: InstrKind.CALL_IND,
    TermKind.RET: InstrKind.RET,
}


#: Terminators that need a taken successor, and those that need a
#: fall-through successor.
_TAKES_BRANCH = frozenset((TermKind.COND, TermKind.LOOP, TermKind.JUMP))
_FALLS_THROUGH = frozenset((TermKind.FALL, TermKind.COND, TermKind.LOOP,
                            TermKind.CALL, TermKind.ICALL))


class BasicBlock:
    """One straight-line run of instructions plus its terminator.

    ``instr_sizes`` / ``instr_kinds`` cover every instruction in the block
    *including* the terminator (for terminated blocks the last kind is the
    branch kind implied by ``term``). ``FALL`` blocks have no terminator
    instruction.
    """

    __slots__ = ("index", "addr", "instr_sizes", "instr_kinds", "term",
                 "taken_succ", "fall_succ", "callee", "callees", "bias",
                 "loop_mean", "is_cold", "instr_offsets")

    def __init__(self, index: int, instr_sizes: Sequence[int],
                 instr_kinds: Sequence[InstrKind], term: TermKind, *,
                 taken_succ: Optional[int] = None,
                 fall_succ: Optional[int] = None,
                 callee: Optional[int] = None,
                 callees: Tuple[int, ...] = (),
                 bias: float = 0.5,
                 loop_mean: float = 0.0,
                 is_cold: bool = False) -> None:
        if len(instr_sizes) != len(instr_kinds):
            raise ConfigurationError("instr_sizes and instr_kinds must align")
        if not instr_sizes:
            raise ConfigurationError("basic blocks must contain instructions")
        if term in _TERM_INSTR and instr_kinds[-1] != _TERM_INSTR[term]:
            raise ConfigurationError(
                f"block terminator {term.name} requires last kind "
                f"{_TERM_INSTR[term].name}, got {instr_kinds[-1].name}"
            )
        self.index = index
        self.addr = 0
        self.instr_offsets: Tuple[int, ...] = ()
        self.instr_sizes = tuple(instr_sizes)
        self.instr_kinds = tuple(instr_kinds)
        self.term = term
        self.taken_succ = taken_succ
        self.fall_succ = fall_succ
        self.callee = callee
        self.callees = callees
        self.bias = bias
        self.loop_mean = loop_mean
        self.is_cold = is_cold

    @property
    def size(self) -> int:
        """Block size in bytes."""
        return sum(self.instr_sizes)

    @property
    def end_addr(self) -> int:
        return self.addr + self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BasicBlock(#{self.index} @{self.addr:#x} "
                f"{len(self.instr_sizes)} instrs, {self.term.name})")


class Function:
    """A laid-out sequence of basic blocks with a single entry (block 0)."""

    __slots__ = ("index", "blocks", "addr", "name")

    def __init__(self, index: int, blocks: List[BasicBlock],
                 name: str = "") -> None:
        if not blocks:
            raise ConfigurationError("functions must contain blocks")
        self.index = index
        self.blocks = blocks
        self.addr = 0
        self.name = name or f"fn_{index}"

    @property
    def size(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def validate(self) -> None:
        """Raise ConfigurationError on dangling successor references."""
        n = len(self.blocks)
        for b in self.blocks:
            for succ in (b.taken_succ, b.fall_succ):
                if succ is not None and not 0 <= succ < n:
                    raise ConfigurationError(
                        f"{self.name}: block {b.index} references block {succ} "
                        f"outside 0..{n - 1}"
                    )
            if b.term in _TAKES_BRANCH:
                if b.taken_succ is None:
                    raise ConfigurationError(
                        f"{self.name}: block {b.index} {b.term.name} without "
                        "taken successor"
                    )
            if b.term in _FALLS_THROUGH:
                if b.fall_succ is None:
                    raise ConfigurationError(
                        f"{self.name}: block {b.index} {b.term.name} without "
                        "fall-through successor"
                    )


class Program:
    """A complete synthetic binary: functions, entry points and layout."""

    def __init__(self, functions: List[Function], *,
                 dispatcher: int = 0,
                 entry_points: Sequence[int] = (),
                 code_base: int = CODE_BASE) -> None:
        if not functions:
            raise ConfigurationError("programs need at least one function")
        self.functions = functions
        self.dispatcher = dispatcher
        self.entry_points = tuple(entry_points)
        self.code_base = code_base
        self.layout()

    def layout(self) -> None:
        """Assign byte addresses to every function and basic block."""
        addr = self.code_base
        for fn in self.functions:
            if addr % FUNCTION_ALIGN:
                addr += FUNCTION_ALIGN - addr % FUNCTION_ALIGN
            fn.addr = addr
            for block in fn.blocks:
                block.addr = addr
                offsets = tuple(accumulate(block.instr_sizes, initial=0))
                block.instr_offsets = offsets[:-1]
                addr += offsets[-1]
            fn.validate()

    @property
    def code_size(self) -> int:
        """Total footprint in bytes, including alignment padding."""
        last_fn = self.functions[-1]
        return last_fn.blocks[-1].end_addr - self.code_base

    def block_at(self, fn_index: int, block_index: int) -> BasicBlock:
        return self.functions[fn_index].blocks[block_index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Program({len(self.functions)} functions, "
                f"{self.code_size / 1024:.1f} KiB code)")
