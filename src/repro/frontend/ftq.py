"""The fetch-range stream and the BPU run-ahead that builds it.

A *fetch range* is the unit the decoupled front-end works with: a
contiguous byte span *within one 64-byte block*, the trace instructions
whose last byte falls inside it, and the resteer (if any) its terminating
branch causes. The fetch engine requests exactly these byte spans from the
L1-I — the "start byte address + number of bytes" interface of
Section IV-A — and FDIP prefetches the blocks they touch.

:func:`precompute_range_stream` advances the BPU along a columnar
:class:`~repro.trace.arrays.ArrayTrace` once per trace: a range ends at a
predicted-taken branch, a 64-byte boundary, or a resteer-causing branch.
It returns a :class:`RangeStream`, one typed ``array`` column per range
field, and :func:`segment_stream` splits every range into its per-cycle
delivery chunks, again as flat columns. Neither holds a Python object per
range, so a trace's front-end state costs a few bytes per range and
nothing to the cyclic GC.

Every hardware thread builds and consumes its ranges in emission order,
so the cycle loop's FTQ and FDIP queue are cursors into the stream (see
:class:`repro.cpu.machine.HardwareThread`): the BPU stage advances
``bpu_pos``, FDIP trails it with ``fdip_pos``, and fetch pops at
``range_seq``. Run-ahead stops behind each resteer until the machine
resolves it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left

from ..errors import SimulationError
from ..trace.arrays import ArrayTrace
from ..trace.record import IS_BRANCH
from .bpu import BranchPredictionUnit


class RangeStream:
    """A trace's fetch ranges in emission order, one column per field.

    ``start[r]`` and ``nbytes[r]`` give range ``r``'s byte span,
    ``first_index[r]`` and ``n_instrs[r]`` the trace instructions that
    complete in it (their ends are ``trace.end[first:first + n]``), and
    ``resteer[r]`` the :class:`~repro.frontend.bpu.Resteer` code of its
    last instruction. ``cond_lookups[r]`` and ``mispredicts[r]`` are the
    BPU's cumulative counters right after range ``r`` was built, so a
    replay keeps them exact at every cycle boundary.
    """

    __slots__ = ("start", "nbytes", "first_index", "n_instrs", "resteer",
                 "cond_lookups", "mispredicts")

    def __init__(self) -> None:
        self.start = array("Q")
        self.nbytes = array("B")
        self.first_index = array("I")
        self.n_instrs = array("B")
        self.resteer = array("B")
        self.cond_lookups = array("I")
        self.mispredicts = array("I")

    def __len__(self) -> int:
        return len(self.start)


class DeliveryChunks:
    """Every range's per-cycle delivery chunks as three flat columns.

    Range ``r``'s chunks are indices ``offset[r]`` to ``offset[r + 1]``;
    chunk ``c`` ends at byte ``end[c]`` and leaves ``delivered[c]`` of the
    range's instructions delivered.
    """

    __slots__ = ("offset", "end", "delivered")

    def __init__(self) -> None:
        self.offset = array("I", [0])
        self.end = array("Q")
        self.delivered = array("B")


def segment_stream(trace: ArrayTrace, stream: RangeStream, fetch_bytes: int,
                   fetch_width: int) -> DeliveryChunks:
    """Split every range of ``stream`` into its per-cycle delivery chunks.

    The chunks are exactly the ones the machine's delivery loop would
    compute cycle by cycle: bytes capped at ``fetch_bytes``, instructions
    at ``fetch_width``, and the chunk clipped back to the last completing
    instruction when the width limit binds mid-range. The split is a pure
    function of the range, the trace's ``end`` column and the fetch
    parameters (stalls only repeat a chunk, they never change it), so it
    is computed once per trace.
    """
    ends = trace.end
    chunks = DeliveryChunks()
    add_offset = chunks.offset.append
    add_end = chunks.end.append
    add_delivered = chunks.delivered.append
    n_chunks = 0
    for cur_byte, nbytes, first, n in zip(stream.start, stream.nbytes,
                                          stream.first_index,
                                          stream.n_instrs):
        cur_end = cur_byte + nbytes
        last = first + n
        i = first
        while cur_byte < cur_end:
            chunk_end = cur_byte + fetch_bytes
            if chunk_end > cur_end:
                chunk_end = cur_end
            i0 = i
            n_stop = i0 + fetch_width
            if n_stop > last:
                n_stop = last
            while i < n_stop and ends[i] <= chunk_end:
                i += 1
            if i - i0 == fetch_width and i < last:
                chunk_end = ends[i - 1]
            add_end(chunk_end)
            add_delivered(i - first)
            n_chunks += 1
            cur_byte = chunk_end
        add_offset(n_chunks)
    return chunks


def precompute_range_stream(trace: ArrayTrace,
                            bpu: BranchPredictionUnit) -> RangeStream:
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
    is stateful); straight-line runs are skipped over whole.

    The caller's ``bpu`` is fully advanced on return.
    """
    pcs, sizes, kinds = trace.pc, trace.size, trace.kind
    takens, targets = trace.taken, trace.target
    ends, boundaries = trace.end, trace.boundary
    n_trace = len(trace)
    is_branch = IS_BRANCH
    process_raw = bpu.process_raw
    stream = RangeStream()
    add_start = stream.start.append
    add_nbytes = stream.nbytes.append
    add_first = stream.first_index.append
    add_count = stream.n_instrs.append
    add_resteer = stream.resteer.append
    add_lookups = stream.cond_lookups.append
    add_mispredicts = stream.mispredicts.append
    idx = 0
    continuation = None   # block boundary a straddling instruction crosses
    while idx < n_trace:
        start = pcs[idx] if continuation is None else continuation
        block_end = (start | 63) + 1
        idx0 = idx
        end = start
        resteer = 0
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
        add_start(start)
        add_nbytes(end - start)
        add_first(idx0)
        add_count(idx - idx0)
        add_resteer(resteer)
        add_lookups(bpu.cond_lookups)
        add_mispredicts(bpu.mispredicts)
    return stream
