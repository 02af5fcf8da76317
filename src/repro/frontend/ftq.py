"""Fetch ranges and the BPU-run-ahead range builder.

A :class:`FetchRange` is the unit the decoupled front-end works with: a
contiguous byte span *within one 64-byte block*, the trace instructions
whose last byte falls inside it, and the resteer (if any) its terminating
branch causes. The fetch engine requests exactly these byte spans from the
L1-I — the "start byte address + number of bytes" interface of
Section IV-A — and FDIP prefetches the blocks they touch.

Ranges are built by :class:`RangeBuilder`, which advances the BPU along
the trace: a range ends at a predicted-taken branch, a 64-byte boundary,
or a resteer-causing branch (after which run-ahead stops until the machine
resumes it).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..trace.arrays import ArrayTrace
from ..trace.record import IS_BRANCH, Instruction
from .bpu import BranchPredictionUnit, Resteer

_RESTEER_NONE = Resteer.NONE


class FetchRange:
    """A byte span within one block plus its completing instructions."""

    __slots__ = ("start", "nbytes", "first_index", "instr_ends", "resteer")

    def __init__(self, start: int, nbytes: int, first_index: int,
                 instr_ends: Tuple[int, ...], resteer: Resteer) -> None:
        self.start = start
        self.nbytes = nbytes
        self.first_index = first_index
        self.instr_ends = instr_ends  # absolute end addr per instruction
        self.resteer = resteer

    @property
    def end(self) -> int:
        return self.start + self.nbytes

    @property
    def n_instrs(self) -> int:
        return len(self.instr_ends)

    @property
    def block_addr(self) -> int:
        return (self.start >> 6) << 6

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FetchRange({self.start:#x}+{self.nbytes}, "
                f"{self.n_instrs} instrs, {self.resteer.name})")


class RangeBuilder:
    """Advances the BPU over the trace, emitting fetch ranges."""

    __slots__ = ("trace", "bpu", "index", "_next_byte", "blocked",
                 "_n_trace", "_bpu_process", "_bpu_process_raw", "_cols")

    def __init__(self, trace: Sequence[Instruction],
                 bpu: BranchPredictionUnit) -> None:
        self.trace = trace
        self.bpu = bpu
        self.index = 0                 # next instruction the BPU considers
        self._next_byte: Optional[int] = None  # continuation byte, if any
        self.blocked = False           # stopped behind a resteer
        self._n_trace = len(trace)
        self._bpu_process = bpu.process
        self._bpu_process_raw = bpu.process_raw
        # Columnar traces are walked through their flat columns so
        # run-ahead never materialises Instruction objects; the derived
        # ``end``/``boundary`` sidecar columns let the walk jump over
        # whole straight-line runs (one binary search per segment)
        # instead of visiting every instruction.
        if isinstance(trace, ArrayTrace):
            self._cols = (trace.pc, trace.size, trace.kind,
                          trace.taken, trace.target,
                          trace.end, trace.boundary)
        else:
            self._cols = None

    @property
    def exhausted(self) -> bool:
        return self.index >= self._n_trace and self._next_byte is None

    def resume(self) -> None:
        """Called when a resteer resolves; run-ahead may continue."""
        self.blocked = False

    def build_next(self) -> Optional[FetchRange]:
        """Produce the next fetch range, or None when blocked/exhausted."""
        if self.blocked or self.exhausted:
            return None
        if self._cols is not None:
            return self._build_next_columnar()
        trace = self.trace
        n_trace = self._n_trace
        idx = self.index
        next_byte = self._next_byte
        start = next_byte if next_byte is not None else trace[idx].pc
        block_end = (start | 63) + 1

        instr_ends: List[int] = []
        append = instr_ends.append
        is_branch = IS_BRANCH
        process = self._bpu_process
        end = start
        resteer = _RESTEER_NONE
        straddle = False

        while idx < n_trace:
            ins = trace[idx]
            ins_end = ins.pc + ins.size
            if ins_end > block_end:
                # The instruction straddles the block boundary: it completes
                # in the continuation range that starts at the boundary.
                end = block_end
                straddle = True
                break
            end = ins_end
            append(ins_end)
            idx += 1
            if is_branch[ins.kind]:
                resteer = process(ins)
                if resteer:          # i.e. != Resteer.NONE
                    self.blocked = True
                    break
                if ins.taken:
                    break
            if ins_end == block_end:
                break

        if end == start:
            raise SimulationError("built an empty fetch range")
        self.index = idx
        self._next_byte = block_end if straddle else None
        # Completed instructions are trace[idx - len(instr_ends) : idx] in
        # both the normal and the boundary-straddling case.
        return FetchRange(start, end - start, idx - len(instr_ends),
                          tuple(instr_ends), resteer)

    def _build_next_columnar(self) -> Optional[FetchRange]:
        """:meth:`build_next` reading an :class:`ArrayTrace`'s columns —
        identical control flow and results, no Instruction objects.

        Instead of visiting every instruction, the walk advances one
        *segment* at a time: ``boundary[idx]`` gives the next index whose
        instruction is a branch, a fall-through discontinuity, or the
        trace end, and within ``[idx, boundary[idx]]`` the ``end`` column
        is strictly increasing, so one ``bisect_left`` finds where the
        64-byte block closes. Only branch instructions are touched
        individually (the BPU is stateful); straight-line runs are
        delivered as a slice of the precomputed ``end`` column.
        """
        pcs, sizes, kinds, takens, targets, ends, boundaries = self._cols
        n_trace = self._n_trace
        idx = self.index
        next_byte = self._next_byte
        start = next_byte if next_byte is not None else pcs[idx]
        block_end = (start | 63) + 1

        idx0 = idx
        stop = idx           # one past the last delivered instruction
        is_branch = IS_BRANCH
        process_raw = self._bpu_process_raw
        end = start
        resteer = _RESTEER_NONE
        straddle = False

        while idx < n_trace:
            b = boundaries[idx]
            m = bisect_left(ends, block_end, idx, b + 1)
            if m <= b:
                if ends[m] > block_end:
                    # Instruction m straddles the block boundary: it
                    # completes in the continuation range starting there.
                    stop = idx = m
                    end = block_end
                    straddle = True
                    break
                # ends[m] == block_end: the range closes exactly on the
                # boundary. A branch can only sit at m when m == b (the
                # segment guarantees indices before b are non-branches).
                stop = idx = m + 1
                end = block_end
                if m == b and is_branch[kinds[b]]:
                    resteer = process_raw(kinds[b], pcs[b], sizes[b],
                                          takens[b] == 1, targets[b])
                    if resteer:      # i.e. != Resteer.NONE
                        self.blocked = True
                break
            # The whole segment fits in the block: deliver through the
            # boundary instruction in one step.
            stop = idx = b + 1
            end = ends[b]
            if is_branch[kinds[b]]:
                taken = takens[b] == 1
                resteer = process_raw(kinds[b], pcs[b], sizes[b],
                                      taken, targets[b])
                if resteer:          # i.e. != Resteer.NONE
                    self.blocked = True
                    break
                if taken:
                    break
            # Not-taken branch or fall-through discontinuity with room
            # left in the block: continue into the next segment.

        if end == start:
            raise SimulationError("built an empty fetch range")
        self.index = idx
        self._next_byte = block_end if straddle else None
        return FetchRange(start, end - start, idx0,
                          tuple(ends[idx0:stop].tolist()), resteer)


def segment_range(fetch_range: FetchRange, fetch_bytes: int,
                  fetch_width: int) -> List[Tuple[int, int]]:
    """Split a fetch range into its per-cycle delivery chunks.

    Returns ``[(chunk_end, instrs_delivered_after), ...]`` — exactly the
    chunks the machine's delivery loop would compute cycle by cycle
    (bytes capped at ``fetch_bytes``, instructions at ``fetch_width``,
    and the chunk clipped back to the last completing instruction when
    the width limit binds mid-range). The split is a pure function of
    the range and the fetch parameters — stalls only repeat a chunk,
    they never change it — so it can be computed once per range.
    """
    ends = fetch_range.instr_ends
    n_ends = len(ends)
    cur_byte = fetch_range.start
    cur_end = cur_byte + fetch_range.nbytes
    segs: List[Tuple[int, int]] = []
    append = segs.append
    i = 0
    while cur_byte < cur_end:
        chunk_end = cur_byte + fetch_bytes
        if chunk_end > cur_end:
            chunk_end = cur_end
        i0 = i
        n_stop = i0 + fetch_width
        if n_stop > n_ends:
            n_stop = n_ends
        while i < n_stop and ends[i] <= chunk_end:
            i += 1
        if i - i0 == fetch_width and i < n_ends:
            chunk_end = ends[i - 1]
        append((chunk_end, i))
        cur_byte = chunk_end
    return segs


def precompute_range_stream(trace: Sequence[Instruction],
                            bpu: BranchPredictionUnit,
                            ) -> List[Tuple[FetchRange, int, int]]:
    """Run a :class:`RangeBuilder` over the whole trace in one pass.

    The sequence of fetch ranges is a pure function of the trace and the
    BPU parameters: ``build_next`` never observes the cache, the FTQ or
    the clock, and resteer blocking only delays *when* the next range is
    built, never *what* it is. Precomputing the stream therefore moves
    the entire BPU/perceptron/BTB walk out of the timed cycle loop while
    staying bit-identical: the machine's BPU stage replays it, blocking
    after each resteer-causing range exactly as a live builder would.

    Returns ``[(range, cond_lookups, mispredicts), ...]`` where the
    counters are the BPU's cumulative values right after each range was
    built, so a replay can keep the externally visible counters exact at
    every cycle boundary. The caller's ``bpu`` is fully advanced on
    return.
    """
    builder = RangeBuilder(trace, bpu)
    stream: List[Tuple[FetchRange, int, int]] = []
    append = stream.append
    build_next = builder.build_next
    while True:
        fetch_range = build_next()
        if fetch_range is None:
            if builder.blocked:
                builder.resume()
                continue
            break
        append((fetch_range, bpu.cond_lookups, bpu.mispredicts))
    return stream
