"""Fetch ranges and the BPU run-ahead that builds them.

A :class:`FetchRange` is the unit the decoupled front-end works with: a
contiguous byte span *within one 64-byte block*, the trace instructions
whose last byte falls inside it, and the resteer (if any) its terminating
branch causes. The fetch engine requests exactly these byte spans from the
L1-I — the "start byte address + number of bytes" interface of
Section IV-A — and FDIP prefetches the blocks they touch.

:func:`precompute_range_stream` advances the BPU along a columnar
:class:`~repro.trace.arrays.ArrayTrace` once per trace: a range ends at a
predicted-taken branch, a 64-byte boundary, or a resteer-causing branch.
The cycle loop replays the resulting stream, stopping run-ahead behind
each resteer until the machine resolves it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Tuple

from ..errors import SimulationError
from ..trace.arrays import ArrayTrace
from ..trace.record import IS_BRANCH
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


def precompute_range_stream(trace: ArrayTrace,
                            bpu: BranchPredictionUnit,
                            ) -> List[Tuple[FetchRange, int, int]]:
    """Walk the BPU over the whole trace once, emitting its fetch ranges.

    The sequence of fetch ranges is a pure function of the trace and the
    BPU parameters: the walk never observes the cache, the FTQ or the
    clock, and resteer blocking only delays *when* the next range is
    built, never *what* it is. Precomputing the stream therefore moves
    the entire BPU/perceptron/BTB walk out of the timed cycle loop while
    staying bit-identical: the machine's BPU stage replays it, blocking
    after each resteer-causing range.

    The walk reads only the trace's columns and advances one *segment*
    at a time: ``boundary[idx]`` gives the next index whose instruction
    is a branch, a fall-through discontinuity, or the trace end, and
    within ``[idx, boundary[idx]]`` the ``end`` column is strictly
    increasing, so one ``bisect_left`` finds where the 64-byte block
    closes. Only branch instructions are touched individually (the BPU
    is stateful); straight-line runs are delivered as a slice of the
    ``end`` column.

    Returns ``[(range, cond_lookups, mispredicts), ...]`` where the
    counters are the BPU's cumulative values right after each range was
    built, so a replay can keep the externally visible counters exact at
    every cycle boundary. The caller's ``bpu`` is fully advanced on
    return.
    """
    pcs, sizes, kinds = trace.pc, trace.size, trace.kind
    takens, targets = trace.taken, trace.target
    ends, boundaries = trace.end, trace.boundary
    n_trace = len(trace)
    is_branch = IS_BRANCH
    process_raw = bpu.process_raw
    stream: List[Tuple[FetchRange, int, int]] = []
    append = stream.append
    idx = 0
    continuation = None   # block boundary a straddling instruction crosses
    while idx < n_trace:
        start = pcs[idx] if continuation is None else continuation
        block_end = (start | 63) + 1
        idx0 = idx
        end = start
        resteer = _RESTEER_NONE
        continuation = None
        while idx < n_trace:
            b = boundaries[idx]
            m = bisect_left(ends, block_end, idx, b + 1)
            if m <= b:
                end = block_end
                if ends[m] > block_end:
                    # Instruction m straddles the block boundary: it
                    # completes in the continuation range starting there.
                    idx = m
                    continuation = block_end
                    break
                # ends[m] == block_end: the range closes exactly on the
                # boundary. A branch can only sit at m when m == b (the
                # segment guarantees indices before b are non-branches).
                idx = m + 1
                if m == b and is_branch[kinds[b]]:
                    resteer = process_raw(kinds[b], pcs[b], sizes[b],
                                          takens[b] == 1, targets[b])
                break
            # The whole segment fits in the block: deliver through the
            # boundary instruction in one step.
            idx = b + 1
            end = ends[b]
            if is_branch[kinds[b]]:
                taken = takens[b] == 1
                resteer = process_raw(kinds[b], pcs[b], sizes[b],
                                      taken, targets[b])
                if resteer or taken:
                    break
            # Not-taken branch or fall-through discontinuity with room
            # left in the block: continue into the next segment.
        if end == start:
            raise SimulationError("built an empty fetch range")
        append((FetchRange(start, end - start, idx0,
                           tuple(ends[idx0:idx].tolist()), resteer),
                bpu.cond_lookups, bpu.mispredicts))
    return stream
