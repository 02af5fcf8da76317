"""Synthetic workload generation.

Two stages mirror how real binaries come to exist and then execute:

* :class:`ProgramBuilder` synthesises a static :class:`~.program.Program`
  from a :class:`SynthesisSpec`: functions made of hot basic blocks with
  cold regions interleaved at sub-cache-block granularity (the AsmDB
  observation the paper builds on), if/else diamonds, loops and a
  DAG-shaped call graph with Zipfian callee popularity.
* :class:`TraceWalker` executes the program — a dispatcher loop picks entry
  functions per "request" through an indirect call — and emits the
  instruction trace the simulator consumes, as the columns of an
  :class:`~repro.trace.arrays.ArrayTrace`. It builds no
  :class:`~repro.trace.record.Instruction` objects: each basic block's
  static column slices are built once per program, on the block's first
  visit, and every visit extends the columns by them, appending only the
  per-visit draws (registers, data addresses, the terminator's outcome).

Both stages are fully deterministic for a given spec and seed. The walk
draws the RNG in program order, which fixes the trace bytes;
``tests/trace/test_synthesis_digests.py`` pins them for every workload.

Draws are exact, not merely equivalent in distribution. Both stages call
the generator's C methods, ``random()`` and ``getrandbits(k)``, at every
draw site, with the formula the ``random.Random`` method they stand for
computes: ``randrange(n)`` and ``randint`` are :func:`_below`'s
``getrandbits`` rejection loop, ``uniform(a, b)`` is
``a + (b - a) * random()``, ``choices`` over the variable-length sizes is a
``bisect_right`` on their cumulative weights, and :func:`_geometric`
inlines ``expovariate``. Only ``Random.sample`` (rare, at indirect-call
sites) is still called. CPython 3.10, 3.11 and 3.12 compute these methods
the same way; ``tests/trace/test_draws.py`` checks every inlined form
against the method it replaces, values and generator state both.
"""

from __future__ import annotations

import gc
import random
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from math import log
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .arrays import COLUMNS, ArrayTrace
from .program import _TERM_INSTR, BasicBlock, Function, Program, TermKind
from .record import InstrKind

#: Version of the generator's output for a given spec. Part of the trace
#: cache's file names (``ResultCache._trace_path``): bump it with any
#: change that moves a synthesised byte, so cached traces miss.
SYNTHESIS_FORMAT = 1

STACK_BASE = 0x7FFF_0000
GLOBAL_BASE = 0x1000_0000
#: No register (-1 in the src1/dst columns), as the walker collects it: the
#: byte whose signed value is -1.
_NO_REG = 0xFF

#: Instruction-size distribution of the synthetic variable-length ISA
#: (mean ~4.3 bytes, like x86 server code).
_VARIABLE_SIZES = (2, 3, 4, 5, 6, 7, 8, 10, 13, 15)
_VARIABLE_WEIGHTS = (0.10, 0.22, 0.28, 0.14, 0.09, 0.07, 0.05, 0.03, 0.01, 0.01)
#: ``Random.choices(_VARIABLE_SIZES, _VARIABLE_WEIGHTS)`` draws
#: ``_VARIABLE_SIZES[bisect_right(_SIZE_CUM, random() * _SIZE_TOTAL, 0,
#: _SIZE_HI)]``; these are the values it computes on every call.
_SIZE_CUM = list(accumulate(_VARIABLE_WEIGHTS))
_SIZE_TOTAL = _SIZE_CUM[-1] + 0.0
_SIZE_HI = len(_VARIABLE_SIZES) - 1

#: ``randrange(n)`` draws ``n.bit_length()`` bits per try; the walker
#: draws registers, stack slots and words within a data block this way.
_REGS, _REG_BITS = 32, 6
_STACK_SLOTS, _STACK_BITS = 16, 5
_WORDS, _WORD_BITS = 8, 4

_DEFAULT_MIX = {
    InstrKind.ALU: 0.53,
    InstrKind.LOAD: 0.24,
    InstrKind.STORE: 0.12,
    InstrKind.FP: 0.06,
    InstrKind.MUL: 0.05,
}


@dataclass(frozen=True)
class SynthesisSpec:
    """All knobs of the workload generator.

    The probabilities ``p_unit_*`` classify each generated code "unit";
    whatever probability mass remains produces plain fall-through blocks.
    """

    name: str = "workload"
    isa: str = "fixed4"                 # "fixed4" | "variable"
    seed: int = 1

    n_functions: int = 300
    units_per_function_mean: float = 6.0
    hot_block_instrs_mean: float = 6.0
    cold_block_instrs_mean: float = 9.0
    straight_block_instrs_mean: float = 36.0

    p_unit_cold: float = 0.34
    p_unit_ifelse: float = 0.14
    p_unit_loop: float = 0.10
    p_unit_call: float = 0.22
    p_unit_vcall: float = 0.0           # indirect (virtual) call sites
    p_unit_straight: float = 0.06
    vcall_targets: int = 4              # callees per indirect call site
    cold_blocks_max: int = 2            # consecutive cold blocks per region

    cold_exec_prob: float = 0.004       # probability a cold region runs
    cond_bias_low: float = 0.35
    cond_bias_high: float = 0.70
    loop_trips_mean: float = 8.0
    loop_body_blocks: int = 2

    n_entry_points: int = 48
    zipf_alpha: float = 0.9
    shared_fraction: float = 0.25       # functions shared across entry slices

    instr_mix: Dict[InstrKind, float] = field(
        default_factory=lambda: dict(_DEFAULT_MIX)
    )
    data_footprint: int = 1 << 20
    p_stack_access: float = 0.45
    p_src_recent: float = 0.45          # dependency-chain density

    def __post_init__(self) -> None:
        if self.isa not in ("fixed4", "variable"):
            raise ConfigurationError(f"unknown ISA {self.isa!r}")
        total = (self.p_unit_cold + self.p_unit_ifelse + self.p_unit_loop
                 + self.p_unit_call + self.p_unit_vcall
                 + self.p_unit_straight)
        if total > 1.0 + 1e-9:
            raise ConfigurationError("unit probabilities exceed 1.0")
        if self.n_functions < 2:
            raise ConfigurationError("need at least dispatcher + one function")
        if self.n_entry_points >= self.n_functions:
            raise ConfigurationError("more entry points than callable functions")

    @property
    def instruction_granularity(self) -> int:
        """Bit-vector granularity matching this ISA (Section IV-B)."""
        return 4 if self.isa == "fixed4" else 1


class _ZipfSampler:
    """Draw integers in [0, n) with probability proportional to 1/(k+1)^a."""

    def __init__(self, n: int, alpha: float) -> None:
        weights = [1.0 / (k + 1) ** alpha for k in range(n)]
        total = sum(weights)
        self._cumulative: List[float] = list(
            accumulate([w / total for w in weights]))

    def sample(self, rng: random.Random) -> int:
        return bisect_right(self._cumulative, rng.random())


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """``Random.randrange(n)``, drawn as CPython 3.10-3.12 draw it: take
    ``n.bit_length()`` random bits until the value is below ``n``."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _geometric(random: Callable[[], float], mean: float,
               minimum: int = 1) -> int:
    """Geometric-ish draw with the given mean, at least ``minimum``:
    ``minimum + int(expovariate(1.0 / (mean - minimum)) + 0.5)``, with
    ``expovariate`` inlined (``random`` is the bound ``Random.random``)."""
    if mean <= minimum:
        return minimum
    return minimum + int(-log(1.0 - random()) / (1.0 / (mean - minimum))
                         + 0.5)


class ProgramBuilder:
    """Builds a static program from a :class:`SynthesisSpec`, drawing
    the generator's C methods directly (see the module docstring)."""

    def __init__(self, spec: SynthesisSpec) -> None:
        self.spec = spec
        self._rng = random.Random(spec.seed * 1_000_003 + 17)
        mix = spec.instr_mix
        self._mix_kinds = tuple(mix.keys())
        acc = 0.0
        cumulative = []
        total = sum(mix.values())
        for kind in self._mix_kinds:
            acc += mix[kind] / total
            cumulative.append(acc)
        self._mix_cumulative = tuple(cumulative)

    # -- low-level helpers ---------------------------------------------------

    def _block_body(self, n_instrs: int,
                    terminator: Optional[InstrKind]) -> Tuple[List[int], List[InstrKind]]:
        """Sizes and kinds for a block of ``n_instrs`` (at least one)
        instructions: the body's sizes are drawn, then its kinds, then the
        terminator's size. A ``fixed4`` size draws nothing."""
        random = self._rng.random
        n_body = n_instrs if terminator is None else n_instrs - 1
        mix_kinds, mix_cumulative = self._mix_kinds, self._mix_cumulative
        if self.spec.isa == "fixed4":
            sizes = [4] * n_instrs
            kinds = [mix_kinds[bisect_right(mix_cumulative, random())]
                     for _ in range(n_body)]
        else:
            sizes = [_VARIABLE_SIZES[bisect_right(
                         _SIZE_CUM, random() * _SIZE_TOTAL, 0, _SIZE_HI)]
                     for _ in range(n_body)]
            kinds = [mix_kinds[bisect_right(mix_cumulative, random())]
                     for _ in range(n_body)]
            if terminator is not None:
                sizes.append(_VARIABLE_SIZES[bisect_right(
                    _SIZE_CUM, random() * _SIZE_TOTAL, 0, _SIZE_HI)])
        if terminator is not None:
            kinds.append(terminator)
        return sizes, kinds

    def _draw_bias(self) -> float:
        """Taken-probability of an if/else branch.

        Real branch populations are dominated by strongly biased branches
        with a hard-to-predict tail; the mixture below gives a realistic
        overall misprediction rate for a perceptron predictor. The
        ``cond_bias_low/high`` knobs bound the hard tail. Each bias is a
        ``uniform(a, b)`` draw, ``a + (b - a) * random()``.
        """
        random = self._rng.random
        r = random()
        if r < 0.68:
            bias = 0.94 + (0.995 - 0.94) * random()
        elif r < 0.93:
            bias = 0.82 + (0.94 - 0.82) * random()
        else:
            low = self.spec.cond_bias_low
            bias = low + (self.spec.cond_bias_high - low) * random()
        return bias if random() < 0.5 else 1.0 - bias

    # -- function construction ----------------------------------------------

    def _build_function(self, index: int, callee_pool: Sequence[int],
                        call_scale: float = 1.0) -> Function:
        """Function ``index``, calling into ``callee_pool`` (ascending, as
        :meth:`build` makes it)."""
        spec = self.spec
        rng = self._rng
        random, getrandbits = rng.random, rng.getrandbits
        block_body = self._block_body
        blocks: List[BasicBlock] = []
        JUMP, RET = TermKind.JUMP, TermKind.RET

        def add(n_instrs: int, term: TermKind, **fields) -> BasicBlock:
            """Append a block of ``n_instrs`` (at least 1) instructions;
            every block but a jump or a return falls through to the next
            one."""
            sizes, kinds = block_body(n_instrs, _TERM_INSTR.get(term))
            i = len(blocks)
            block = BasicBlock(i, sizes, kinds, term, fall_succ=(
                None if term is JUMP or term is RET else i + 1), **fields)
            blocks.append(block)
            return block

        # Only higher-indexed callees keep the call graph a DAG.
        callees = list(callee_pool[bisect_right(callee_pool, index):])
        can_call = bool(callees)
        hot_mean = spec.hot_block_instrs_mean
        n_units = _geometric(random, spec.units_per_function_mean, minimum=2)
        t_cold = spec.p_unit_cold
        t_ifelse = t_cold + spec.p_unit_ifelse
        t_loop = t_ifelse + spec.p_unit_loop
        t_call = t_loop + spec.p_unit_call * call_scale
        t_vcall = t_call + spec.p_unit_vcall * call_scale
        t_straight = t_vcall + spec.p_unit_straight
        for _ in range(n_units):
            r = random()
            hot_n = _geometric(random, hot_mean, minimum=2)
            if r < t_cold:
                # Hot block whose terminator usually skips an inline cold
                # region of one or more blocks (error/rare-path code):
                # randint(1, cold_blocks_max) of them.
                a = add(hot_n, TermKind.COND, bias=1.0 - spec.cold_exec_prob)
                n_cold = 1 + _below(getrandbits, max(1, spec.cold_blocks_max))
                for _ in range(n_cold):
                    cold_n = _geometric(random, spec.cold_block_instrs_mean,
                                        minimum=2)
                    last = add(cold_n, TermKind.FALL, is_cold=True)
                a.taken_succ = last.index + 1
            elif r < t_ifelse:
                bias = self._draw_bias()
                a = add(hot_n, TermKind.COND, bias=bias)
                b = add(_geometric(random, hot_mean, minimum=2), TermKind.JUMP)
                c = add(_geometric(random, hot_mean, minimum=2), TermKind.FALL)
                a.taken_succ = c.index         # branch taken -> else side
                b.taken_succ = c.index + 1     # jump over the else side
            elif r < t_loop:
                body_blocks = max(1, spec.loop_body_blocks)
                first_body = len(blocks)
                for _ in range(body_blocks - 1):
                    add(_geometric(random, hot_mean, minimum=2),
                        TermKind.FALL)
                body_n = _geometric(random, hot_mean, minimum=2)
                # Trip count is fixed per loop site (drawn here, not per
                # entry): real loop bounds are mostly stable and history
                # predictors learn them, so loop exits are not a dominant
                # mispredict source.
                trips = float(_geometric(
                    random, max(1.0, spec.loop_trips_mean), minimum=2))
                add(body_n, TermKind.LOOP, taken_succ=first_body,
                    loop_mean=trips)
            elif r < t_call and can_call:
                callee = callees[_below(getrandbits, len(callees))]
                add(hot_n, TermKind.CALL, callee=callee)
            elif r < t_vcall and can_call:
                # Virtual-dispatch site: one of several callees per visit.
                k = min(spec.vcall_targets, len(callees))
                targets = tuple(rng.sample(callees, k))
                add(hot_n, TermKind.ICALL, callees=targets)
            elif r < t_straight:
                n = _geometric(random, spec.straight_block_instrs_mean,
                               minimum=8)
                add(n, TermKind.FALL)
            else:
                add(hot_n, TermKind.FALL)

        add(max(1, _geometric(random, 3.0)), TermKind.RET)  # epilogue
        return Function(index, blocks)

    def _build_dispatcher(self, entry_points: Sequence[int]) -> Function:
        sizes0, kinds0 = self._block_body(4, InstrKind.CALL_IND)
        sizes1, kinds1 = self._block_body(3, InstrKind.JUMP)
        blocks = [
            BasicBlock(0, sizes0, kinds0, TermKind.ICALL,
                       callees=tuple(entry_points), fall_succ=1),
            BasicBlock(1, sizes1, kinds1, TermKind.JUMP, taken_succ=0),
        ]
        return Function(0, blocks, name="dispatcher")

    def build(self) -> Program:
        """Construct the program.

        Functions are organised the way a service binary is: per-entry
        "slices" of middle-layer functions (one slice per request type) plus
        a pool of shared utility functions at the top of the index range
        that every slice can call. Request handling therefore touches its
        own slice plus some shared code; Zipf-interleaved requests then
        produce large instruction reuse distances, which is what overwhelms
        a 32 KB L1-I on real server binaries.

        The cyclic GC is paused for the build (the caller's setting is
        restored): every container it allocates ends up in the returned
        program, so a collection would only scan live objects.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._build()
        finally:
            if enabled:
                gc.enable()

    def _build(self) -> Program:
        spec = self.spec
        n = spec.n_functions
        n_entries = spec.n_entry_points
        entry_points = tuple(range(1, 1 + n_entries))
        n_shared = max(1, int(n * spec.shared_fraction))
        shared_pool = tuple(range(n - n_shared, n))
        mid_lo = 1 + n_entries
        mid_hi = n - n_shared            # exclusive
        mid_total = max(0, mid_hi - mid_lo)
        per_slice = mid_total // n_entries if n_entries else 0

        def pool_for(index: int) -> Sequence[int]:
            if index >= mid_hi:
                # Shared utilities are leaf-ish: they may call only a few
                # nearby utilities, keeping their call trees shallow.
                return tuple(range(index + 1, min(n, index + 7)))
            if index >= mid_lo:          # middle-layer: own slice + shared
                slice_idx = min((index - mid_lo) // max(1, per_slice),
                                n_entries - 1) if per_slice else 0
                lo = mid_lo + slice_idx * per_slice
                hi = min(mid_hi, lo + per_slice)
                return tuple(range(lo, hi)) + shared_pool
            if index >= 1:               # entry point: its slice + shared
                slice_idx = index - 1
                lo = mid_lo + slice_idx * per_slice
                hi = min(mid_hi, lo + per_slice)
                return tuple(range(lo, hi)) + shared_pool
            return ()

        functions = [self._build_dispatcher(entry_points)]
        for index in range(1, n):
            scale = 0.35 if index >= mid_hi else 1.0
            functions.append(
                self._build_function(index, pool_for(index), call_scale=scale)
            )
        return Program(functions, dispatcher=0, entry_points=entry_points)


class TraceWalker:
    """Executes a :class:`Program` and emits an instruction trace."""

    def __init__(self, program: Program, spec: SynthesisSpec,
                 seed: Optional[int] = None) -> None:
        self.program = program
        self.spec = spec
        self._rng = random.Random(spec.seed * 7_368_787 + 101
                                  if seed is None else seed)
        self._entry_zipf = _ZipfSampler(
            max(1, len(program.entry_points)), spec.zipf_alpha
        )
        # Indirect-call sites have skewed target popularity (one dominant
        # receiver type), like real virtual dispatch.
        self._vcall_zipf: Dict[int, _ZipfSampler] = {}
        n_data_blocks = max(1, spec.data_footprint // 64)
        self._data_zipf = _ZipfSampler(min(n_data_blocks, 1 << 14),
                                       spec.zipf_alpha)
        self._data_stride = max(1, n_data_blocks // min(n_data_blocks, 1 << 14))
        # Per-block static column slices, built on first visit.
        self._block_cols: Dict[BasicBlock, tuple] = {}

    # -- main loop -----------------------------------------------------------

    def _block_columns(self, blocks: List[BasicBlock],
                       block: BasicBlock) -> tuple:
        """The static column slices of ``block``, one of its function's
        ``blocks``: pc, size and kind of every instruction; target and
        taken, zero for the body (every instruction but a terminator) and
        then the terminator's own where the walk does not decide it (the
        target of a branch, a jump or a direct call, the taken bit of a
        jump, a call or a return); the all-``-1`` src2 column (no second
        source is drawn); then the body's memory-op flags and the
        instruction count."""
        n = len(block.instr_sizes)
        term = block.term
        n_body = n if term is TermKind.FALL else n - 1
        base = block.addr
        targets = array("Q", bytes(8 * n_body))
        takens = array("B", bytes(n_body))
        if term in (TermKind.COND, TermKind.LOOP, TermKind.JUMP):
            targets.append(blocks[block.taken_succ].addr)  # type: ignore[index]
        elif term is TermKind.CALL:
            callee = self.program.functions[block.callee]  # type: ignore[index]
            targets.append(callee.addr)
        if term not in (TermKind.FALL, TermKind.COND, TermKind.LOOP):
            takens.append(1)
        return (array("Q", [base + off for off in block.instr_offsets]),
                array("B", block.instr_sizes),
                array("B", block.instr_kinds),
                targets,
                takens,
                array("b", [-1]) * n,
                tuple(k is InstrKind.LOAD or k is InstrKind.STORE
                      for k in block.instr_kinds[:n_body]),
                n)

    def run(self, n_instructions: int) -> ArrayTrace:
        """Emit at least ``n_instructions`` instructions (stops at the next
        block boundary, so the result may slightly exceed the request) as
        an :class:`ArrayTrace`. Each visited block extends the columns by
        its static slices (:meth:`_block_columns`); the RNG is drawn per
        body instruction, in order, and then for the terminator. Every
        ``randrange`` is inlined as the ``getrandbits`` loop of
        :func:`_below`."""
        program = self.program
        functions = program.functions
        dispatcher = program.dispatcher
        spec = self.spec
        rng = self._rng
        random, getrandbits = rng.random, rng.getrandbits
        regs, reg_bits = _REGS, _REG_BITS
        stack_slots, stack_bits = _STACK_SLOTS, _STACK_BITS
        words, word_bits = _WORDS, _WORD_BITS
        p_src_recent = spec.p_src_recent
        p_stack = spec.p_stack_access
        data_cumulative = self._data_zipf._cumulative
        data_bytes = self._data_stride * 64
        block_columns = self._block_cols
        FALL, COND, LOOP = TermKind.FALL, TermKind.COND, TermKind.LOOP
        JUMP, CALL, ICALL = TermKind.JUMP, TermKind.CALL, TermKind.ICALL
        RET = TermKind.RET

        columns = {name: array(fmt) for name, fmt in COLUMNS}
        pc_ext = columns["pc"].extend
        size_ext = columns["size"].extend
        kind_ext = columns["kind"].extend
        src2_ext = columns["src2"].extend
        target_col = columns["target"]
        taken_col = columns["taken"]
        target_ext, target_a = target_col.extend, target_col.append
        taken_ext, taken_a = taken_col.extend, taken_col.append
        mem_a = columns["mem_addr"].append
        # src1 and dst take one value per instruction: collect them in
        # bytearrays, whose append is a third of a signed-byte array's,
        # and reinterpret the bytes at the end (-1 is collected as
        # _NO_REG).
        src1s, dsts = bytearray(), bytearray()
        src1_a, dst_a = src1s.append, dsts.append

        # The last eight destination registers, oldest first.
        recent_dsts = deque([1, 2, 3, 4], maxlen=8)
        recent_a = recent_dsts.append
        # A call-stack frame: (function index, block index to resume at,
        # per-activation loop trip counters). Each frame lowers the stack
        # top by 192 bytes.
        stack: List[Tuple[int, int, Dict[int, int]]] = []
        stack_top = STACK_BASE
        fn_idx = dispatcher
        blocks = functions[fn_idx].blocks
        blk_idx = 0
        loop_counters: Dict[int, int] = {}
        n = 0

        while n < n_instructions:
            block = blocks[blk_idx]
            cols = block_columns.get(block)
            if cols is None:
                cols = block_columns[block] = self._block_columns(blocks,
                                                                  block)
            pcs, sizes, kinds, targets, takens, src2s, mem_ops, n_block = cols
            pc_ext(pcs)
            size_ext(sizes)
            kind_ext(kinds)
            target_ext(targets)
            taken_ext(takens)
            src2_ext(src2s)
            n += n_block

            # randrange(32) for dst; a recent destination (randrange of
            # the window's length) or randrange(32) for src1; for a memory
            # op, randrange(16) for a stack slot or a Zipf data block and
            # randrange(8) for the word in it.
            for is_mem in mem_ops:
                dst = getrandbits(reg_bits)
                while dst >= regs:
                    dst = getrandbits(reg_bits)
                if random() < p_src_recent:
                    m = len(recent_dsts)
                    k = m.bit_length()
                    r = getrandbits(k)
                    while r >= m:
                        r = getrandbits(k)
                    src1 = recent_dsts[r]
                else:
                    src1 = getrandbits(reg_bits)
                    while src1 >= regs:
                        src1 = getrandbits(reg_bits)
                if not is_mem:
                    mem_a(0)
                elif random() < p_stack:
                    r = getrandbits(stack_bits)
                    while r >= stack_slots:
                        r = getrandbits(stack_bits)
                    mem_a(stack_top - 8 * r)
                else:
                    addr = (GLOBAL_BASE
                            + bisect_right(data_cumulative, random())
                            * data_bytes)
                    r = getrandbits(word_bits)
                    while r >= words:
                        r = getrandbits(word_bits)
                    mem_a(addr + 8 * r)
                src1_a(src1)
                dst_a(dst)
                recent_a(dst)

            term = block.term
            if term is FALL:
                blk_idx = block.fall_succ  # type: ignore[assignment]
                continue

            # The terminator: no destination, no data access.
            dst_a(_NO_REG)
            mem_a(0)
            if term is COND:
                taken = random() < block.bias
                taken_a(taken)
                src1_a(recent_dsts[0])
                blk_idx = (block.taken_succ if taken  # type: ignore[assignment]
                           else block.fall_succ)
            elif term is LOOP:
                remaining = loop_counters.get(blk_idx)
                if remaining is None:
                    remaining = max(1, int(block.loop_mean))
                if remaining > 1:
                    loop_counters[blk_idx] = remaining - 1
                    taken_a(1)
                    blk_idx = block.taken_succ  # type: ignore[assignment]
                else:
                    loop_counters.pop(blk_idx, None)
                    taken_a(0)
                    blk_idx = block.fall_succ  # type: ignore[assignment]
                src1_a(recent_dsts[0])
            elif term is JUMP:
                src1_a(_NO_REG)
                blk_idx = block.taken_succ  # type: ignore[assignment]
            elif term is CALL:
                src1_a(_NO_REG)
                stack.append((fn_idx, block.fall_succ, loop_counters))  # type: ignore[arg-type]
                stack_top -= 192
                fn_idx = functions[block.callee].index  # type: ignore[index]
                blocks = functions[fn_idx].blocks
                blk_idx, loop_counters = 0, {}
            elif term is ICALL:
                k = len(block.callees)
                if block.fall_succ is not None and fn_idx == dispatcher:
                    pick = block.callees[self._entry_zipf.sample(rng) % k]
                else:
                    sampler = self._vcall_zipf.get(k)
                    if sampler is None:
                        sampler = _ZipfSampler(k, 2.2)
                        self._vcall_zipf[k] = sampler
                    pick = block.callees[sampler.sample(rng)]
                callee = functions[pick]
                target_a(callee.addr)
                src1_a(recent_dsts[0])
                stack.append((fn_idx, block.fall_succ, loop_counters))  # type: ignore[arg-type]
                stack_top -= 192
                fn_idx, blk_idx, loop_counters = callee.index, 0, {}
                blocks = functions[fn_idx].blocks
            elif term is RET:
                src1_a(_NO_REG)
                if not stack:
                    # Defensive: a RET with no caller restarts the dispatcher.
                    fn_idx, blk_idx, loop_counters = dispatcher, 0, {}
                else:
                    fn_idx, blk_idx, loop_counters = stack.pop()
                    stack_top += 192
                blocks = functions[fn_idx].blocks
                target_a(blocks[blk_idx].addr)
            else:  # pragma: no cover - exhaustive above
                raise ConfigurationError(f"unhandled terminator {term}")

        columns["src1"] = array("b", src1s)
        columns["dst"] = array("b", dsts)
        return ArrayTrace(tuple(columns[name] for name, _ in COLUMNS), n)


def generate_trace(spec: SynthesisSpec, n_instructions: int,
                   seed: Optional[int] = None) -> ArrayTrace:
    """Build the program for ``spec`` and walk it for ``n_instructions``."""
    program = ProgramBuilder(spec).build()
    return TraceWalker(program, spec, seed=seed).run(n_instructions)
