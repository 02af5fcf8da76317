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
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .arrays import COLUMNS, ArrayTrace
from .program import BasicBlock, Function, Program, TermKind
from .record import InstrKind

STACK_BASE = 0x7FFF_0000
GLOBAL_BASE = 0x1000_0000

#: Instruction-size distribution of the synthetic variable-length ISA
#: (mean ~4.3 bytes, like x86 server code).
_VARIABLE_SIZES = (2, 3, 4, 5, 6, 7, 8, 10, 13, 15)
_VARIABLE_WEIGHTS = (0.10, 0.22, 0.28, 0.14, 0.09, 0.07, 0.05, 0.03, 0.01, 0.01)

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
    call_span: int = 0                  # kept for compatibility; unused
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
        acc = 0.0
        self._cumulative: List[float] = []
        for w in weights:
            acc += w / total
            self._cumulative.append(acc)

    def sample(self, rng: random.Random) -> int:
        return bisect_right(self._cumulative, rng.random())


def _geometric(rng: random.Random, mean: float, minimum: int = 1) -> int:
    """Geometric-ish draw with the given mean, at least ``minimum``."""
    if mean <= minimum:
        return minimum
    draw = int(rng.expovariate(1.0 / (mean - minimum)) + 0.5)
    return minimum + draw


class ProgramBuilder:
    """Builds a static program from a :class:`SynthesisSpec`."""

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

    def _body_kind(self) -> InstrKind:
        r = self._rng.random()
        return self._mix_kinds[bisect_right(self._mix_cumulative, r)]

    def _instr_size(self) -> int:
        if self.spec.isa == "fixed4":
            return 4
        return self._rng.choices(_VARIABLE_SIZES, _VARIABLE_WEIGHTS)[0]

    def _block_body(self, n_instrs: int,
                    terminator: Optional[InstrKind]) -> Tuple[List[int], List[InstrKind]]:
        """Sizes and kinds for a block of ``n_instrs`` total instructions."""
        n_body = n_instrs - (1 if terminator is not None else 0)
        sizes = [self._instr_size() for _ in range(max(0, n_body))]
        kinds = [self._body_kind() for _ in range(max(0, n_body))]
        if terminator is not None:
            sizes.append(self._instr_size())
            kinds.append(terminator)
        return sizes, kinds

    def _draw_bias(self) -> float:
        """Taken-probability of an if/else branch.

        Real branch populations are dominated by strongly biased branches
        with a hard-to-predict tail; the mixture below gives a realistic
        overall misprediction rate for a perceptron predictor. The
        ``cond_bias_low/high`` knobs bound the hard tail.
        """
        rng = self._rng
        r = rng.random()
        if r < 0.68:
            bias = rng.uniform(0.94, 0.995)
        elif r < 0.93:
            bias = rng.uniform(0.82, 0.94)
        else:
            bias = rng.uniform(self.spec.cond_bias_low,
                               self.spec.cond_bias_high)
        return bias if rng.random() < 0.5 else 1.0 - bias

    # -- function construction ----------------------------------------------

    def _build_function(self, index: int, callee_pool: Sequence[int],
                        call_scale: float = 1.0) -> Function:
        spec = self.spec
        rng = self._rng
        protos: List[dict] = []

        def add(n_instrs: int, term: TermKind, *, taken: Optional[int] = None,
                fall: Optional[int] = None, callee: Optional[int] = None,
                bias: float = 0.5, loop_mean: float = 0.0,
                cold: bool = False) -> int:
            term_instr = {
                TermKind.COND: InstrKind.BR_COND,
                TermKind.LOOP: InstrKind.BR_COND,
                TermKind.JUMP: InstrKind.JUMP,
                TermKind.CALL: InstrKind.CALL,
                TermKind.ICALL: InstrKind.CALL_IND,
                TermKind.RET: InstrKind.RET,
            }.get(term)
            sizes, kinds = self._block_body(max(1, n_instrs), term_instr)
            protos.append(dict(sizes=sizes, kinds=kinds, term=term,
                               taken=taken, fall=fall, callee=callee,
                               callees=(), bias=bias, loop_mean=loop_mean,
                               cold=cold))
            return len(protos) - 1

        # Only higher-indexed callees keep the call graph a DAG.
        callees = [c for c in callee_pool if c > index]
        can_call = bool(callees)
        n_units = _geometric(rng, spec.units_per_function_mean, minimum=2)
        t_cold = spec.p_unit_cold
        t_ifelse = t_cold + spec.p_unit_ifelse
        t_loop = t_ifelse + spec.p_unit_loop
        t_call = t_loop + spec.p_unit_call * call_scale
        t_vcall = t_call + spec.p_unit_vcall * call_scale
        t_straight = t_vcall + spec.p_unit_straight
        for _ in range(n_units):
            r = rng.random()
            hot_n = _geometric(rng, spec.hot_block_instrs_mean, minimum=2)
            if r < t_cold:
                # Hot block whose terminator usually skips an inline cold
                # region of one or more blocks (error/rare-path code).
                a = add(hot_n, TermKind.COND, bias=1.0 - spec.cold_exec_prob)
                n_cold = rng.randint(1, max(1, spec.cold_blocks_max))
                last = a
                for _ in range(n_cold):
                    cold_n = _geometric(rng, spec.cold_block_instrs_mean,
                                        minimum=2)
                    last = add(cold_n, TermKind.FALL, cold=True)
                    protos[last]["fall"] = last + 1
                protos[a]["taken"] = last + 1
                protos[a]["fall"] = a + 1
            elif r < t_ifelse:
                bias = self._draw_bias()
                a = add(hot_n, TermKind.COND, bias=bias)
                then_n = _geometric(rng, spec.hot_block_instrs_mean, minimum=2)
                b = add(then_n, TermKind.JUMP)
                else_n = _geometric(rng, spec.hot_block_instrs_mean, minimum=2)
                c = add(else_n, TermKind.FALL)
                protos[a]["taken"] = c       # branch taken -> else side
                protos[a]["fall"] = b
                protos[b]["taken"] = c + 1   # jump over the else side
                protos[c]["fall"] = c + 1
            elif r < t_loop:
                body_blocks = max(1, spec.loop_body_blocks)
                first_body = len(protos)
                for j in range(body_blocks):
                    body_n = _geometric(rng, spec.hot_block_instrs_mean,
                                        minimum=2)
                    if j == body_blocks - 1:
                        # Trip count is fixed per loop site (drawn here, not
                        # per entry): real loop bounds are mostly stable and
                        # history predictors learn them, so loop exits are
                        # not a dominant mispredict source.
                        trips = float(_geometric(
                            rng, max(1.0, spec.loop_trips_mean), minimum=2))
                        latch = add(body_n, TermKind.LOOP,
                                    taken=first_body, loop_mean=trips)
                        protos[latch]["fall"] = latch + 1
                    else:
                        blk = add(body_n, TermKind.FALL)
                        protos[blk]["fall"] = blk + 1
            elif r < t_call and can_call:
                callee = callees[rng.randrange(len(callees))]
                a = add(hot_n, TermKind.CALL, callee=callee)
                protos[a]["fall"] = a + 1
            elif r < t_vcall and can_call:
                # Virtual-dispatch site: one of several callees per visit.
                k = min(spec.vcall_targets, len(callees))
                targets = tuple(rng.sample(callees, k))
                a = add(hot_n, TermKind.ICALL)
                protos[a]["callees"] = targets
                protos[a]["fall"] = a + 1
            elif r < t_straight:
                n = _geometric(rng, spec.straight_block_instrs_mean, minimum=8)
                a = add(n, TermKind.FALL)
                protos[a]["fall"] = a + 1
            else:
                a = add(hot_n, TermKind.FALL)
                protos[a]["fall"] = a + 1

        add(max(1, _geometric(rng, 3.0)), TermKind.RET)  # epilogue
        blocks = [
            BasicBlock(i, p["sizes"], p["kinds"], p["term"],
                       taken_succ=p["taken"], fall_succ=p["fall"],
                       callee=p["callee"], callees=p["callees"],
                       bias=p["bias"], loop_mean=p["loop_mean"],
                       is_cold=p["cold"])
            for i, p in enumerate(protos)
        ]
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
        """
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

    def _block_columns(self, block: BasicBlock) -> tuple:
        """The static column slices of ``block``: pc, size and kind of
        every instruction, zero target/taken for the body (every
        instruction but a terminator), the all-``-1`` src2 column (no
        second source is drawn), then the body's memory-op flags and the
        instruction count."""
        n = len(block.instr_sizes)
        n_body = n if block.term == TermKind.FALL else n - 1
        base = block.addr
        body_kinds = block.instr_kinds[:n_body]
        return (array("Q", [base + off for off in block.instr_offsets]),
                array("B", block.instr_sizes),
                array("B", block.instr_kinds),
                array("Q", bytes(8 * n_body)),
                array("B", bytes(n_body)),
                array("b", [-1]) * n,
                tuple(k is InstrKind.LOAD or k is InstrKind.STORE
                      for k in body_kinds),
                n)

    def run(self, n_instructions: int) -> ArrayTrace:
        """Emit at least ``n_instructions`` instructions (stops at the next
        block boundary, so the result may slightly exceed the request) as
        an :class:`ArrayTrace`. Each visited block extends the columns by
        its static slices (:meth:`_block_columns`); the RNG is drawn per
        body instruction, in order, and then for the terminator."""
        program = self.program
        functions = program.functions
        dispatcher = program.dispatcher
        spec = self.spec
        rng = self._rng
        random = rng.random
        randrange = rng.randrange
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
        src1_a = columns["src1"].append
        dst_a = columns["dst"].append

        # The last eight destination registers, oldest first.
        recent_dsts = deque([1, 2, 3, 4], maxlen=8)
        recent_a = recent_dsts.append
        # A call-stack frame: (function index, block index to resume at,
        # per-activation loop trip counters).
        stack: List[Tuple[int, int, Dict[int, int]]] = []
        fn_idx = dispatcher
        blk_idx = 0
        loop_counters: Dict[int, int] = {}
        n = 0

        while n < n_instructions:
            fn = functions[fn_idx]
            block = fn.blocks[blk_idx]
            cols = block_columns.get(block)
            if cols is None:
                cols = block_columns[block] = self._block_columns(block)
            pcs, sizes, kinds, zeros_q, zeros_b, src2s, mem_ops, n_block = cols
            pc_ext(pcs)
            size_ext(sizes)
            kind_ext(kinds)
            src2_ext(src2s)
            target_ext(zeros_q)
            taken_ext(zeros_b)
            n += n_block
            stack_top = STACK_BASE - len(stack) * 192

            for is_mem in mem_ops:
                dst = randrange(32)
                if random() < p_src_recent:
                    src1 = recent_dsts[randrange(len(recent_dsts))]
                else:
                    src1 = randrange(32)
                if not is_mem:
                    mem_a(0)
                elif random() < p_stack:
                    mem_a(stack_top - 8 * randrange(16))
                else:
                    mem_a(GLOBAL_BASE
                          + bisect_right(data_cumulative, random())
                          * data_bytes + 8 * randrange(8))
                src1_a(src1)
                dst_a(dst)
                recent_a(dst)

            term = block.term
            if term == FALL:
                blk_idx = block.fall_succ  # type: ignore[assignment]
                continue

            # The terminator: no destination, no data access.
            dst_a(-1)
            mem_a(0)
            if term == COND:
                taken = random() < block.bias
                target_a(fn.blocks[block.taken_succ].addr)  # type: ignore[index]
                taken_a(taken)
                src1_a(recent_dsts[0])
                blk_idx = (block.taken_succ if taken  # type: ignore[assignment]
                           else block.fall_succ)
            elif term == LOOP:
                remaining = loop_counters.get(blk_idx)
                if remaining is None:
                    remaining = max(1, int(block.loop_mean))
                if remaining > 1:
                    loop_counters[blk_idx] = remaining - 1
                    taken, succ = True, block.taken_succ
                else:
                    loop_counters.pop(blk_idx, None)
                    taken, succ = False, block.fall_succ
                target_a(fn.blocks[block.taken_succ].addr)  # type: ignore[index]
                taken_a(taken)
                src1_a(recent_dsts[0])
                blk_idx = succ  # type: ignore[assignment]
            elif term == JUMP:
                target_a(fn.blocks[block.taken_succ].addr)  # type: ignore[index]
                taken_a(1)
                src1_a(-1)
                blk_idx = block.taken_succ  # type: ignore[assignment]
            elif term == CALL:
                callee = functions[block.callee]  # type: ignore[index]
                target_a(callee.addr)
                taken_a(1)
                src1_a(-1)
                stack.append((fn_idx, block.fall_succ, loop_counters))  # type: ignore[arg-type]
                fn_idx, blk_idx, loop_counters = callee.index, 0, {}
            elif term == ICALL:
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
                taken_a(1)
                src1_a(recent_dsts[0])
                stack.append((fn_idx, block.fall_succ, loop_counters))  # type: ignore[arg-type]
                fn_idx, blk_idx, loop_counters = callee.index, 0, {}
            elif term == RET:
                taken_a(1)
                src1_a(-1)
                if not stack:
                    # Defensive: a RET with no caller restarts the dispatcher.
                    target_a(functions[dispatcher].addr)
                    fn_idx, blk_idx, loop_counters = dispatcher, 0, {}
                else:
                    caller_fn, resume_blk, counters = stack.pop()
                    target_a(functions[caller_fn].blocks[resume_blk].addr)
                    fn_idx, blk_idx, loop_counters = caller_fn, resume_blk, counters
            else:  # pragma: no cover - exhaustive above
                raise ConfigurationError(f"unhandled terminator {term}")

        return ArrayTrace(tuple(columns[name] for name, _ in COLUMNS), n)


def generate_trace(spec: SynthesisSpec, n_instructions: int,
                   seed: Optional[int] = None) -> ArrayTrace:
    """Build the program for ``spec`` and walk it for ``n_instructions``."""
    program = ProgramBuilder(spec).build()
    return TraceWalker(program, spec, seed=seed).run(n_instructions)
