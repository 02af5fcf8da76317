"""The simulated core: decoupled FDIP front-end + OoO back-end.

The front-end is simulated cycle by cycle:

* the BPU runs ahead of fetch, turning the trace into fetch ranges pushed
  into the FTQ (stopping at resteer-causing branches);
* FDIP walks newly created FTQ entries and prefetches the blocks they
  touch into the L1-I (for UBS: into the usefulness predictor);
* the fetch engine requests up to ``fetch_bytes`` per cycle from the L1-I
  using the start-address + length interface of Section IV-A, delivering
  completed instructions to the back-end scoreboard;
* L1-I misses allocate MSHRs and block fetch until the fill arrives from
  the L2/L3/DRAM hierarchy; mispredicts block fetch until the branch
  resolves in the back-end (BTB misses resteer at decode).

One cycle loop, :meth:`Core._simulate`, runs every simulation. Its
:class:`HardwareThread` s share the L1-I, the MSHR file, the FTQ capacity,
the BPU build port, FDIP's prefetch budget and the fetch port.
:class:`Machine` is the one-thread entry point, :class:`repro.smt.SMTMachine`
the N-thread one. Long stalls are skipped over in bulk once the BPU and
FDIP run out of work, without changing any event timing.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import fields as _dataclass_fields, replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SimulationError
from ..frontend.bpu import BranchPredictionUnit, Resteer
from ..frontend.ftq import (DeliveryChunks, RangeStream,
                            precompute_range_stream, segment_stream)
from ..memory.distillation import DistillationICache
from ..memory.hierarchy import MemoryHierarchy
from ..memory.icache import (InstructionCacheBase, ConventionalICache,
                             MissKind)
from ..memory.mshr import MSHRFile
from ..memory.small_block import SmallBlockICache
from ..params import (TRANSFER_BLOCK, CoreParams, MachineParams, UBSParams,
                      conventional_l1i)
from ..stats.counters import FrontEndStats, SimResult
from ..stats.efficiency import EfficiencySampler
from ..telemetry import (
    FTQ as EV_FTQ,
    L1I as EV_L1I,
    MSHR as EV_MSHR,
    NULL_TELEMETRY,
    RUN_SUMMARY,
    STALL as EV_STALL,
    Telemetry,
)
from ..telemetry.profiler import ProfileReport
from ..trace.arrays import ArrayTrace
from ..core.configs import ubs_params_for_budget, way_config
from ..core.predictor import PredictorConfig
from ..core.ubs_cache import UBSICache
from .backend import Backend
from .precompute import derived

#: Address-space stride between hardware threads. Far above any set-index
#: or block-offset bit, so the shift lands entirely in tag bits: threads
#: fight over the same sets but never hit each other's blocks.
THREAD_ADDR_STRIDE = 1 << 40

_STALL_MISS, _STALL_RESTEER, _STALL_BACKEND = 1, 2, 3

#: Hoisted enum member: the fetch loop compares against it every cycle.
_HIT = MissKind.HIT

#: Event-trace cause names for the ``_STALL_*`` codes.
_STALL_NAMES = {
    _STALL_MISS: "miss",
    _STALL_RESTEER: "resteer",
    _STALL_BACKEND: "backend",
}

#: Co-run miss attribution: the per-thread counter of each partial miss.
_PARTIAL_FIELDS = {
    MissKind.MISSING_SUBBLOCK: "l1i_partial_missing",
    MissKind.OVERRUN: "l1i_partial_overrun",
    MissKind.UNDERRUN: "l1i_partial_underrun",
}

#: Front-end counters a run-summary event reports, in field order.
_SUMMARY_FIELDS = ("fetch_stall_cycles", "mispredict_stall_cycles",
                   "l1i_hits", "l1i_misses", "partial_misses",
                   "branch_mispredicts", "btb_resteers", "prefetches_issued")

#: Cycle mask between FTQ/MSHR occupancy samples when tracing.
_FTQ_SAMPLE_MASK = 255

#: Later than any simulated cycle ("no resteer pending", "no sampling").
_NEVER = 1 << 62


class HardwareThread:
    """One architectural stream plus its private front/back-end state:
    BPU (predictor state is not shared — threads run disjoint code), FTQ
    entries, FDIP queue, back-end/ROB, :class:`FrontEndStats` and stall
    attribution. Thread ``tid`` lives ``tid * THREAD_ADDR_STRIDE`` into
    the shared address space.

    A thread builds, prefetches and fetches its ranges in emission order,
    so its queues are cursors into the precomputed
    :class:`~repro.frontend.ftq.RangeStream`: the FTQ holds ranges
    ``range_seq`` to ``bpu_pos`` and the FDIP queue ranges ``fdip_pos``
    to ``bpu_pos`` (``fdip_pos`` stays at ``bpu_pos`` when the prefetcher
    is not FDIP)."""

    # Slots keep attribute reads on the interpreter's fast path (an
    # instance dict this wide would not be).
    __slots__ = (
        "tid", "trace", "addr_offset", "ev", "bpu", "stream", "stream_len",
        "bpu_pos", "fdip_pos", "bpu_blocked", "chunks", "backend", "accept",
        "cur", "cur_byte", "cur_end", "n_ends", "delivered_in_range",
        "seg_idx", "range_seq",
        "delivered", "last_commit", "blocked_until", "blocked_kind",
        "stall_pc", "resume_at", "stats", "total", "measure",
        "warmup_commit", "warmup_boundary", "measuring", "finished",
        "snapshot", "arb_lost_cycles", "result")

    def __init__(self, tid: int, trace: ArrayTrace, params: MachineParams,
                 hierarchy: MemoryHierarchy, tag_events: bool,
                 private_l1d: bool) -> None:
        if not trace:
            raise ConfigurationError(f"thread {tid}: empty trace")
        self.tid = tid
        self.trace = trace
        self.addr_offset = tid * THREAD_ADDR_STRIDE
        #: Extra telemetry-event fields naming the thread (co-runs only).
        self.ev = {"thread": tid} if tag_events else {}
        self.bpu = BranchPredictionUnit(params.branch)
        # The range stream is a pure function of (trace, BPU params):
        # precompute it off the measured clock and replay it in the BPU
        # stage. Streams and their per-cycle delivery chunks are derived
        # entries of the trace, so every L1-I configuration shares one
        # BPU walk.
        core = params.core
        branch = params.branch
        stream = derived(trace, ("range_stream", branch), RangeStream,
                         lambda: precompute_range_stream(trace, self.bpu))
        self.bpu.cond_lookups = self.bpu.mispredicts = 0
        self.stream = stream
        self.stream_len = len(stream)
        self.bpu_pos = 0              # next stream entry the BPU builds
        self.fdip_pos = 0             # next range FDIP prefetches
        self.bpu_blocked = False      # run-ahead stopped behind a resteer
        self.chunks = derived(
            trace, ("range_segs", branch, core.fetch_bytes,
                    core.fetch_width), DeliveryChunks,
            lambda: segment_stream(trace, stream, core.fetch_bytes,
                                   core.fetch_width))
        self.backend = Backend(core, hierarchy)
        # Off the clock; a lone thread's L1-D outcomes are precomputed.
        self.backend.bind_trace(trace, self.addr_offset, private_l1d)
        self.accept = self.backend.accept
        # Fetch progress (see park) and stall state.
        self.park(None, 0, 0, 0, 0, 0, 0, 0, 0)
        self.blocked_until = self.blocked_kind = self.stall_pc = 0
        self.resume_at = _NEVER       # BPU resumes here after a resteer
        # Window bookkeeping.
        self.stats = FrontEndStats()
        self.total = self.measure = self.warmup_commit = 0
        self.warmup_boundary = 1
        self.measuring = self.finished = False
        # Counters as the measured window opened: cache hits and misses,
        # prefetches issued, conditional-branch lookups.
        self.snapshot = (0, 0, 0, 0)
        self.arb_lost_cycles = 0
        self.result: Optional[SimResult] = None

    def park(self, *progress) -> None:
        """Store the fetch progress the cycle loop keeps in locals while
        this thread holds the fetch port: the range in flight (its stream
        index, or None), its byte and instruction progress, the chunk
        index, the FTQ head ``range_seq``, and the delivery counts."""
        (self.cur, self.cur_byte, self.cur_end, self.n_ends,
         self.delivered_in_range, self.seg_idx, self.range_seq,
         self.delivered, self.last_commit) = progress

    def take_port(self) -> tuple:
        """Everything the cycle loop binds to locals for the port owner:
        the parked progress, the stall state, then per-run constants."""
        b = self.backend
        s = self.stream
        c = self.chunks
        return (self.cur, self.cur_byte, self.cur_end, self.n_ends,
                self.delivered_in_range, self.seg_idx, self.range_seq,
                self.delivered, self.last_commit,
                self.measuring, self.blocked_until, self.blocked_kind,
                self.total, self.warmup_boundary, self.stats, self.accept,
                b._ring, b._rob, b._decode_latency, b.rob_free_cycle,
                self.addr_offset, self.trace.pc, self.ev,
                s.start, s.nbytes, s.first_index, s.n_instrs, s.resteer,
                c.offset, c.end, c.delivered)

    @property
    def ftq_occupancy(self) -> int:
        """FTQ entries built but not yet taken by fetch, as last parked."""
        return self.bpu_pos - self.range_seq

    @property
    def pending_instrs(self) -> int:
        """ICOUNT metric: instructions fetched-ahead but undelivered (the
        end of the last range built minus the instructions delivered —
        ranges are built and delivered in trace order)."""
        last = self.bpu_pos - 1
        if last < 0:
            return 0
        s = self.stream
        return s.first_index[last] + s.n_instrs[last] - self.delivered


class Core:
    """Hardware threads on one core with a shared front end; ``traces``
    are one :class:`ArrayTrace` per thread (an object trace is converted
    once, here). Subclasses are the entry points: each defines ``run``
    and adds its own counters in :meth:`metrics`.

    A finished core must stay free of reference cycles, so that dropping
    the last reference frees it at once rather than at the next cyclic
    GC collection."""

    #: Tag every telemetry event with its thread (``thread=<tid>``).
    tag_thread_events = False

    def __init__(self, traces: Sequence[ArrayTrace],
                 icache: InstructionCacheBase,
                 params: Optional[MachineParams] = None,
                 telemetry: Optional[Telemetry] = None,
                 policy: str = "rr") -> None:
        self.params = params or MachineParams()
        self.icache = icache
        self.policy = policy
        self.hierarchy = MemoryHierarchy(self.params)
        self.mshr = MSHRFile(icache.mshr_entries)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        recorder = self.telemetry.recorder
        # Hot paths test ``rec is not None`` — with the default null
        # recorder nothing is ever constructed or emitted.
        self._rec = recorder if recorder.enabled else None
        if self._rec is not None:
            icache.telemetry = recorder
            self.hierarchy.dram.telemetry = recorder
        self.threads = [
            HardwareThread(tid, tr, self.params, self.hierarchy,
                           self.tag_thread_events, len(traces) == 1)
            for tid, tr in enumerate(traces)
        ]
        self.n_threads = len(self.threads)
        self._ftq_capacity = self.params.core.ftq_entries
        self._ftq_occ = 0
        self._fills: List[Tuple[int, int]] = []    # (cycle, block_addr)
        self.cycle = 0
        self.wall_seconds = 0.0

    def metrics(self) -> Dict[str, int]:
        """Every component's counters, read now, as one flat dict keyed by
        dotted name (``machine.cycles``, ``l1i.misses``, ...). The hot
        paths keep no metrics bookkeeping; entry points extend this with
        their own counters, ahead of the shared ones."""
        mshr = self.mshr
        out = {"machine.cycles": self.cycle,
               "ftq.capacity": self._ftq_capacity,
               "mshr.allocations": mshr.allocations,
               "mshr.merges": mshr.merges,
               "mshr.occupancy": len(mshr)}
        out.update(self.icache.metrics())
        out.update(self.hierarchy.metrics())
        if self.n_threads == 1:
            # A lone thread's back-end counts its own (precomputed) L1-D
            # outcomes; the hierarchy's L1-D serves co-runs only.
            b = self.threads[0].backend
            out["l1d.hits"] = b.l1d_hits
            out["l1d.misses"] = b.l1d_misses
        return out

    def profile_report(self) -> Optional[ProfileReport]:
        """The attached profiler's report (None when not profiling)."""
        prof = self.telemetry.profiler
        if prof is None:
            return None
        return prof.report(cycles=self.cycle, instructions=sum(
            t.delivered for t in self.threads))

    # -- the cycle loop -----------------------------------------------------------

    def _simulate(self, windows: Sequence[Tuple[int, int]],
                  sample_efficiency: bool,
                  efficiency_interval: Optional[int]) -> None:
        """Simulate every thread's ``(warmup, measure)`` window, leaving
        each thread's :class:`SimResult` in ``thread.result``.

        The thread holding the fetch port (the *owner*) keeps its fetch
        progress in frame locals, parked on its :class:`HardwareThread`
        only when another thread wins the port or the owner retires; the
        state other stages read (``blocked_until``, ``blocked_kind``,
        ``measuring``, ``stall_pc``, ``resume_at``) is written through on
        every change. Counts over the shared structures are locals too,
        so with one live thread every per-cycle check is a local compare.
        """
        threads = self.threads
        if len(windows) != len(threads):
            raise ConfigurationError(
                f"{len(windows)} windows for {len(threads)} threads")
        solo = len(threads) == 1
        for t, (warmup, measure) in zip(threads, windows):
            total = warmup + measure
            if total > len(t.trace):
                raise ConfigurationError(
                    f"thread {t.tid}: trace has {len(t.trace)} "
                    f"instructions, need {total}")
            t.total = total
            t.measure = measure
            # The measured window opens after the instruction that reaches
            # the warm-up count — with warmup=0, after the very first one.
            t.warmup_boundary = warmup if warmup > 0 else 1
        # Efficiency sampling needs the cache to itself: solo runs only.
        # The interval defaults to ~1/75th of the measured window.
        sampler = None
        if solo and sample_efficiency:
            sampler = EfficiencySampler(
                efficiency_interval if efficiency_interval is not None
                else max(250, threads[0].measure // 75))
        next_sample = _NEVER          # set when the measured window opens

        icache = self.icache
        icache.recording = False
        rec = self._rec
        rec_hits = rec is not None and rec.record_hits
        # Co-runs count L1-I hits per thread (both threads bump the
        # shared cache's counters); solo runs read the cache's own.
        per_thread_l1i = not solo
        hit_hook = per_thread_l1i or rec_hits
        core_p = self.params.core
        btb_penalty = core_p.btb_resteer_penalty
        ftq_cap = self._ftq_capacity
        fills = self._fills
        mshr = self.mshr
        mshr_full, mshr_lookup, mshr_allocate = \
            mshr.full, mshr.lookup, mshr.allocate
        probe = icache.probe_range
        fetch_block = self.hierarchy.fetch_block
        push = heapq.heappush
        resteer_decode = int(Resteer.DECODE)     # range-stream code
        skip_stalls = self._skip_stalls
        arbitrate = self._arbitrate

        live = [t for t in threads if t.total]
        n_live = len(live)
        # Counts over the shared structures, kept in step by every stage.
        ftq_occ = 0
        fdip_busy = False
        bpu_ready = n_live
        resume_at = _NEVER
        fdip_on = core_p.prefetcher == "fdip"
        ranges_per_cycle = range(core_p.bpu_ranges_per_cycle)
        budget = core_p.fdip_degree

        def run_bpu(cycle: int) -> None:
            """The BPU build port: ranges for the first thread, round-robin
            from ``cycle``, able to run ahead (the caller checks for one,
            and for room in the FTQ pool)."""
            nonlocal ftq_occ, bpu_ready, fdip_busy
            t = live[0]
            if n_live > 1:
                k = cycle % n_live
                t = live[k]
                while t.bpu_blocked or t.bpu_pos >= t.stream_len:
                    k = k + 1 if k + 1 < n_live else 0
                    t = live[k]
            stream = t.stream
            resteers = stream.resteer
            pos = t.bpu_pos
            end = t.stream_len
            for _ in ranges_per_cycle:
                # Building a range pushes it on the FTQ (and on FDIP's
                # queue): both end at bpu_pos.
                resteer = resteers[pos]
                pos += 1
                ftq_occ += 1
                if resteer:
                    # Run-ahead stops behind a resteer-causing branch.
                    t.bpu_blocked = True
                    bpu_ready -= 1
                    break
                if pos >= end:
                    bpu_ready -= 1
                    break
                if ftq_occ >= ftq_cap:
                    break
            t.bpu_pos = pos
            if fdip_on:
                fdip_busy = True
            else:
                t.fdip_pos = pos
            # Replay the BPU's counters as of the last range built.
            bpu = t.bpu
            bpu.cond_lookups = stream.cond_lookups[pos - 1]
            bpu.mispredicts = stream.mispredicts[pos - 1]

        def run_fdip(cycle: int) -> None:
            """Issue FDIP prefetches from the threads' pending ranges: one
            shared budget per cycle; each issue rotates to the next thread
            (probe/merge pops cost no budget and do not rotate). Within a
            cycle only an issue can fill the MSHR file, so fullness is
            checked once per thread visit."""
            nonlocal fdip_busy
            k = cycle % n_live
            issued = idle = 0
            while True:
                t = live[k]
                pos = t.fdip_pos
                end = t.bpu_pos
                if pos < end:
                    if mshr_full(cycle):
                        return
                    starts = t.stream.start
                    sizes = t.stream.nbytes
                    offset = t.addr_offset
                while pos < end:
                    start = starts[pos] + offset
                    nbytes = sizes[pos]
                    pos += 1
                    if probe(start, nbytes):
                        continue
                    block_addr = start & ~63
                    if mshr_lookup(block_addr, cycle) is not None:
                        continue
                    # _start_fill, inlined: FDIP issues are per-cycle work.
                    fill_at = cycle + fetch_block(block_addr, cycle)
                    mshr_allocate(block_addr, fill_at, cycle)
                    push(fills, (fill_at, block_addr))
                    t.stats.prefetches_issued += 1
                    if rec is not None:
                        rec.emit(EV_MSHR, cycle, block=block_addr,
                                 fill=fill_at, source="fdip", **t.ev)
                    issued += 1
                    if issued == budget:
                        t.fdip_pos = pos
                        return
                    idle = -1             # an issue rotates to the next
                    break
                t.fdip_pos = pos
                idle += 1
                if idle == n_live:        # every queue drained
                    fdip_busy = False
                    return
                k = k + 1 if k + 1 < n_live else 0

        # Stage callables are bound into locals (and wrapped there when
        # profiling), so unprofiled runs never pay the wrapper cost and no
        # component instance is ever monkey-patched.
        process_fills = self._process_fills
        lookup = icache.lookup
        prof = self.telemetry.profiler
        if prof is not None:
            process_fills = prof.wrap("fills", process_fills)
            run_bpu = prof.wrap("bpu", run_bpu)
            run_fdip = prof.wrap("fdip", run_fdip)
            lookup = prof.wrap("fetch", lookup)
            for t in threads:
                t.accept = prof.wrap("backend", t.accept)
            prof.start()
        wall_start = perf_counter()
        cycle = self.cycle
        # Nobody holds the fetch port yet: the first arbitration hands it
        # out, and so does the one after its owner retires.
        owner = None
        corun = True

        while live:
            if fills and fills[0][0] <= cycle:
                process_fills(cycle)
            # Resume BPU run-ahead once a resteer has resolved.
            if cycle >= resume_at:
                resume_at = _NEVER
                for t in live:
                    if t.resume_at <= cycle:
                        t.resume_at = _NEVER
                        t.bpu_blocked = False
                        bpu_ready += t.bpu_pos < t.stream_len
                    elif t.resume_at < resume_at:
                        resume_at = t.resume_at
            if bpu_ready and ftq_occ < ftq_cap:
                run_bpu(cycle)
            if fdip_busy:
                run_fdip(cycle)

            if rec is not None and (cycle & _FTQ_SAMPLE_MASK) == 0:
                for t in live:
                    # The owner's FTQ head lives in the range_seq local.
                    head = range_seq if t is owner else t.range_seq
                    rec.emit(EV_FTQ, cycle, occupancy=t.bpu_pos - head,
                             mshr=len(mshr), **t.ev)

            # -- fetch port. A co-run syncs the owner and lets _arbitrate
            # classify every live thread in tid order; a lone thread is
            # classified right here, from the locals.
            if corun:
                if owner is not None:
                    owner.cur = cur
                    owner.range_seq = range_seq
                    owner.delivered = delivered
                winner, all_blocked = arbitrate(cycle, live)
                if winner is None:
                    if all_blocked and (ftq_occ >= ftq_cap or not bpu_ready):
                        cycle = skip_stalls(cycle, live)
                    cycle += 1
                    continue
                if winner is not owner:
                    # Park the owner's progress and take over the winner's.
                    if owner is not None:
                        owner.park(cur, cur_byte, cur_end, n_ends,
                                   delivered_in_range, seg_idx, range_seq,
                                   delivered, last_commit)
                    owner = winner
                    corun = n_live > 1
                    (cur, cur_byte, cur_end, n_ends, delivered_in_range,
                     seg_idx, range_seq, delivered, last_commit,
                     measuring, blocked_until, blocked_kind, total,
                     warmup_boundary, stats,
                     accept, rob_ring, rob_cap, decode_lat,
                     rob_free_cycle, addr_offset, pc_col, ev,
                     r_start, r_nbytes, r_first, r_count, r_resteer,
                     chunk_off, chunk_end_col,
                     chunk_delivered) = owner.take_port()
            elif cycle < blocked_until:
                if measuring:
                    if blocked_kind == _STALL_MISS:
                        stats.fetch_stall_cycles += 1
                    elif blocked_kind == _STALL_RESTEER:
                        stats.mispredict_stall_cycles += 1
                    if rec is not None:
                        rec.emit(EV_STALL, cycle,
                                 cause=_STALL_NAMES.get(blocked_kind,
                                                        "unknown"),
                                 cycles=1, pc=owner.stall_pc, **ev)
                # Fast-forward once the BPU is idle (FTQ pool full, or
                # every builder blocked or exhausted).
                if ftq_occ >= ftq_cap or not bpu_ready:
                    cycle = skip_stalls(cycle, live)
                if cycle >= next_sample:
                    sampler.maybe_sample(icache, cycle)
                    next_sample = sampler._next_sample
                cycle += 1
                continue
            elif cur is None and range_seq == owner.bpu_pos:
                # FTQ empty: either the BPU is blocked behind a resteer
                # (fetch waits for it) or run-ahead starved this cycle.
                if measuring and owner.resume_at != _NEVER:
                    self._stall_cycles(owner, _STALL_RESTEER, 1, cycle)
                cycle += 1
                continue

            if cur is None:
                # Pop the FTQ head: ranges pop in emission order, so the
                # head is the stream entry at range_seq.
                cur = range_seq
                range_seq += 1
                ftq_occ -= 1
                cur_byte = r_start[cur]
                cur_end = cur_byte + r_nbytes[cur]
                n_ends = r_count[cur]
                delivered_in_range = 0
                seg_idx = chunk_off[cur]

            # Inlined Backend.rob_has_space(cycle): the owner's back end
            # has accepted exactly ``delivered`` instructions.
            if rob_ring[delivered % rob_cap] > cycle + decode_lat:
                blocked_until = owner.blocked_until = \
                    max(cycle + 1, rob_free_cycle())
                blocked_kind = owner.blocked_kind = _STALL_BACKEND
                owner.stall_pc = cur_byte
                cycle += 1
                continue

            # This cycle's chunk (bytes up to the fetch bandwidth,
            # instructions up to the fetch width) comes precomputed; a
            # stalled chunk is simply retried at the same seg_idx.
            chunk_end = chunk_end_col[seg_idx]
            i = chunk_delivered[seg_idx]
            kind = lookup(cur_byte + addr_offset, chunk_end - cur_byte)
            if kind is not _HIT:
                owner.stall_pc = cur_byte
                if rec is not None:
                    rec.emit(EV_L1I, cycle, result=kind.name,
                             pc=cur_byte, nbytes=chunk_end - cur_byte, **ev)
                blocked_until = owner.blocked_until = self._handle_miss(
                    (cur_byte + addr_offset) & -TRANSFER_BLOCK, cycle, owner)
                blocked_kind = owner.blocked_kind = _STALL_MISS
                if measuring:
                    stats.fetch_stall_cycles += 1
                    if per_thread_l1i:
                        stats.l1i_misses += 1
                        field = _PARTIAL_FIELDS.get(kind)
                        if field is not None:
                            setattr(stats, field, getattr(stats, field) + 1)
                    if rec is not None:
                        rec.emit(EV_STALL, cycle, cause="miss", cycles=1,
                                 pc=cur_byte, **ev)
                cycle += 1
                continue
            if hit_hook:
                if per_thread_l1i and measuring:
                    stats.l1i_hits += 1
                if rec_hits:
                    rec.emit(EV_L1I, cycle, result="HIT", pc=cur_byte,
                             nbytes=chunk_end - cur_byte, **ev)

            # Deliver the completed instructions to the back-end in one
            # chunked call (identical timing to one instruction per call).
            last_complete = 0
            n_accept = i - delivered_in_range
            if delivered + n_accept > total:
                n_accept = total - delivered
            if not measuring and n_accept \
                    and delivered + n_accept >= warmup_boundary:
                # The warm-up boundary falls inside this chunk: split it
                # so the snapshot is taken at the exact instruction.
                n1 = warmup_boundary - delivered
                last_complete, last_commit = accept(n1, cycle)
                delivered += n1
                measuring = True
                self._open_window(owner, last_commit, solo)
                if sampler is not None:
                    sampler.reset(cycle)
                    next_sample = sampler._next_sample
                n2 = n_accept - n1
                if n2:
                    last_complete, last_commit = accept(n2, cycle)
                    delivered += n2
            elif n_accept:
                last_complete, last_commit = accept(n_accept, cycle)
                delivered += n_accept
            delivered_in_range = i
            seg_idx += 1
            cur_byte = chunk_end

            if cur_byte >= cur_end and delivered < total:
                resteer = r_resteer[cur]
                if resteer and delivered_in_range >= n_ends:
                    if resteer == resteer_decode:
                        resume = cycle + btb_penalty
                        if measuring:
                            stats.btb_resteers += 1
                    else:
                        resume = last_complete + 1
                        if measuring:
                            stats.branch_mispredicts += 1
                    owner.resume_at = resume
                    if resume < resume_at:
                        resume_at = resume
                    blocked_until = owner.blocked_until = resume
                    blocked_kind = owner.blocked_kind = _STALL_RESTEER
                    # Attribute the resteer stall to the causing branch.
                    owner.stall_pc = pc_col[r_first[cur] + n_ends - 1]
                cur = None

            if cycle >= next_sample:
                sampler.maybe_sample(icache, cycle)
                next_sample = sampler._next_sample
            cycle += 1
            if delivered >= total:
                # Retire the owner and release its claims on the shared
                # structures and the fetch port.
                owner.park(cur, cur_byte, cur_end, n_ends,
                           delivered_in_range, seg_idx, range_seq,
                           delivered, last_commit)
                owner.finished = True
                live.remove(owner)
                n_live -= 1
                ftq_occ -= owner.bpu_pos - range_seq
                owner.fdip_pos = owner.bpu_pos
                bpu_ready -= (not owner.bpu_blocked
                              and owner.bpu_pos < owner.stream_len)
                owner = None
                corun = True

        self.cycle = cycle
        self._ftq_occ = ftq_occ
        if prof is not None:
            prof.stop()
        self.wall_seconds = perf_counter() - wall_start
        for t in threads:
            t.result = self._finish_thread(t, solo, sampler)

    def _arbitrate(self, cycle: int, live: List[HardwareThread]
                   ) -> Tuple[Optional[HardwareThread], bool]:
        """Classify every live thread and pick the fetch port's winner:
        ``(None, all_blocked)`` when no thread can fetch. Blocked threads
        accrue a stall cycle, idle ones (FTQ empty) a resteer stall while
        one is pending, fetchable losers ``arb_lost_cycles``."""
        fetchable = []
        all_blocked = True
        for t in live:
            if cycle < t.blocked_until:
                if t.measuring:
                    self._stall_cycles(t, t.blocked_kind, 1, cycle)
                continue
            all_blocked = False
            if t.cur is None and t.range_seq == t.bpu_pos:
                if t.resume_at != _NEVER and t.measuring:
                    self._stall_cycles(t, _STALL_RESTEER, 1, cycle)
                continue
            fetchable.append(t)
        if len(fetchable) <= 1:
            return (fetchable[0] if fetchable else None), all_blocked
        n = self.n_threads
        if self.policy == "icount":
            winner = min(fetchable, key=lambda t: (t.pending_instrs,
                                                   (t.tid - cycle) % n))
        else:
            winner = min(fetchable, key=lambda t: (t.tid - cycle) % n)
        for t in fetchable:
            if t is not winner and t.measuring:
                t.arb_lost_cycles += 1
        return winner, False

    # -- helpers -----------------------------------------------------------------------

    def _process_fills(self, cycle: int) -> None:
        fills = self._fills
        if self._rec is not None and fills and fills[0][0] <= cycle:
            # Let the cache stamp predictor train/install events with the
            # fill cycle (fill() itself has no cycle argument).
            self.icache.now = cycle
        pop = heapq.heappop
        fill = self.icache.fill
        while fills and fills[0][0] <= cycle:
            fill(pop(fills)[1])

    def _start_fill(self, addr: int, cycle: int, t: HardwareThread,
                    source: str) -> int:
        """Allocate an MSHR and queue the fill of ``addr``; returns the
        fill cycle."""
        fill_at = cycle + self.hierarchy.fetch_block(addr, cycle)
        self.mshr.allocate(addr, fill_at, cycle)
        heapq.heappush(self._fills, (fill_at, addr))
        if self._rec is not None:
            self._rec.emit(EV_MSHR, cycle, block=addr, fill=fill_at,
                           source=source, **t.ev)
        return fill_at

    def _handle_miss(self, block_addr: int, cycle: int,
                     t: HardwareThread) -> int:
        """Start or join the fill for ``block_addr``; returns its cycle."""
        mshr = self.mshr
        inflight = mshr.lookup(block_addr, cycle)
        if inflight is not None:
            return inflight
        if mshr.full(cycle):
            earliest = mshr.earliest_completion()
            if earliest is None:  # pragma: no cover - defensive
                raise SimulationError("MSHR full but empty")
            return earliest
        fill_at = self._start_fill(block_addr, cycle, t, "demand")
        if self.params.core.prefetcher == "nextline":
            # Sequential prefetch of the blocks following a demand miss.
            for i in range(1, self.params.core.nextline_degree + 1):
                addr = block_addr + i * 64
                if mshr.full(cycle):
                    break
                if not self.icache.probe_range(addr, 1) \
                        and mshr.lookup(addr, cycle) is None:
                    t.stats.prefetches_issued += 1
                    self._start_fill(addr, cycle, t, "nextline")
        return fill_at

    def _stall_cycles(self, t: HardwareThread, kind: int, cycles: int,
                      cycle: int) -> None:
        """Charge a measuring thread ``cycles`` stall cycles of ``kind``."""
        if kind == _STALL_MISS:
            t.stats.fetch_stall_cycles += cycles
        elif kind == _STALL_RESTEER:
            t.stats.mispredict_stall_cycles += cycles
        if self._rec is not None:
            self._rec.emit(EV_STALL, cycle,
                           cause=_STALL_NAMES.get(kind, "unknown"),
                           cycles=cycles, pc=t.stall_pc, **t.ev)

    def _skip_stalls(self, cycle: int, live: List[HardwareThread]) -> int:
        """Fast-forward while every live thread is blocked and the BPU is
        idle, to one cycle before the earliest stall resolves (or, while
        FDIP waits on a full MSHR file, the next fill lands); returns the
        cycle to resume from. Each thread accrues the skipped cycles under
        its own stall kind, exactly as stepping cycle by cycle would."""
        target = _NEVER
        fdip_waiting = False
        for t in live:
            if t.blocked_until < target:
                target = t.blocked_until
            if t.fdip_pos < t.bpu_pos:
                fdip_waiting = True
        if fdip_waiting:
            # FDIP can resume as soon as a fill frees an MSHR entry.
            if not self.mshr.full(cycle):
                return cycle
            if self._fills and self._fills[0][0] < target:
                target = self._fills[0][0]
        skip = target - (cycle + 1)
        if skip <= 0:
            return cycle
        for t in live:
            if t.measuring:
                self._stall_cycles(t, t.blocked_kind, skip, cycle)
        return cycle + skip

    def _open_window(self, t: HardwareThread, last_commit: int,
                     solo: bool) -> None:
        """Open ``t``'s measured window (warm-up boundary just crossed)."""
        icache = self.icache
        if solo:
            icache.recording = True
            icache.reset_stats()
        t.measuring = True
        t.warmup_commit = last_commit
        t.snapshot = (icache.hits, icache.misses, t.stats.prefetches_issued,
                      t.bpu.cond_lookups)

    def _finish_thread(self, t: HardwareThread, solo: bool,
                       sampler: Optional[EfficiencySampler]) -> SimResult:
        hits0, misses0, prefetches0, lookups0 = t.snapshot
        stats = t.stats
        icache = self.icache
        if solo:
            # The cache's own counters (co-runs count per thread instead).
            stats.l1i_hits = icache.hits - hits0
            stats.l1i_misses = icache.misses - misses0
            if isinstance(icache, UBSICache):
                stats.l1i_partial_missing = icache.partial_missing
                stats.l1i_partial_overrun = icache.partial_overrun
                stats.l1i_partial_underrun = icache.partial_underrun
        stats.branch_lookups = t.bpu.cond_lookups - lookups0
        cycles = max(1, t.last_commit - t.warmup_commit)
        if self._rec is not None:
            self._rec.emit(RUN_SUMMARY, self.cycle, cycles=cycles,
                           instructions=t.measure,
                           **{f: getattr(stats, f) for f in _SUMMARY_FIELDS},
                           **t.ev)
        extra = {
            "block_count": icache.block_count(),
            "prefetches": stats.prefetches_issued - prefetches0,
            "dram_accesses": self.hierarchy.dram.accesses,
        }
        if not solo:
            extra["thread"] = t.tid
            extra["arb_lost_cycles"] = t.arb_lost_cycles
        if sampler is not None and not sampler.samples:
            sampler.force_sample(icache)
        return SimResult(workload="", config="", instructions=t.measure,
                         cycles=cycles, frontend=stats, extra=extra,
                         efficiency=sampler and sampler.summary())


class Machine(Core):
    """One simulated core running one thread, with a configurable L1-I
    organisation."""

    def __init__(self, trace: ArrayTrace,
                 icache: InstructionCacheBase,
                 params: Optional[MachineParams] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        super().__init__([trace], icache, params, telemetry)

    def metrics(self) -> Dict[str, int]:
        t = self.threads[0]
        out = {"machine.instructions_delivered": t.delivered}
        for f in _dataclass_fields(FrontEndStats):
            out[f"frontend.{f.name}"] = getattr(t.stats, f.name)
        out["ftq.occupancy"] = t.ftq_occupancy
        out["bpu.cond_lookups"] = t.bpu.cond_lookups
        out["bpu.mispredicts"] = t.bpu.mispredicts
        out.update(super().metrics())
        return out

    def run(self, warmup: int, measure: int,
            sample_efficiency: bool = True,
            efficiency_interval: Optional[int] = None) -> SimResult:
        """Simulate ``warmup + measure`` instructions; report the measured
        window. The efficiency sampling interval defaults to ~1/75th of the
        measured window (the paper's 100K cycles is ~1/1000th of its 50M+
        instruction windows; we keep the same spirit at our scale)."""
        self._simulate([(warmup, measure)], sample_efficiency,
                       efficiency_interval)
        return self.threads[0].result


def build_icache(config: str) -> InstructionCacheBase:
    """Build an L1-I from a configuration name.

    Names (used as result-cache keys throughout the benchmarks):

    * ``conv{16,32,64,128,192}``     — conventional caches of that many KB
    * ``conv32_16w``                 — 32 KB with 16 ways / 32 sets
    * ``conv32_{ghrp,acic}``         — replacement/insertion baselines
    * ``distill32``                  — Line Distillation, 32 KB budget
    * ``small{16,32}``               — 16/32-byte-block caches
    * ``ubs``                        — default Table II UBS cache
    * ``ubs_budget{N}``              — UBS scaled to ~N KB of data storage
    * ``ubs_pred_{dm128,sa8lru,sa8fifo,full}`` — predictor variants
    * ``ubs_ways{N}c{1,2}``          — Fig. 16 way-configuration sweep
    * ``ubs_v{s1.s2...}[_p{E}]``     — free-form way-size vector (dotted,
      ascending), optional direct-mapped predictor with E entries; the
      naming used by the :mod:`repro.dse` search for generated points
    """
    if config.startswith("conv"):
        rest = config[4:]
        if rest == "32_16w":
            return ConventionalICache(conventional_l1i(32 * 1024, ways=16))
        for suffix in ("_ghrp", "_acic", "_srrip", "_drrip", "_fifo",
                       "_random"):
            if rest.endswith(suffix):
                size_kb = int(rest[:-len(suffix)])
                return ConventionalICache(
                    conventional_l1i(size_kb * 1024,
                                     replacement=suffix[1:]))
        size_kb = int(rest)
        ways = 12 if size_kb == 192 else 8
        return ConventionalICache(conventional_l1i(size_kb * 1024, ways=ways))
    if config == "distill32":
        return DistillationICache()
    if config.startswith("small"):
        return SmallBlockICache(block_size=int(config[5:]))
    if config == "ubs":
        return UBSICache()
    if config.startswith("ubs_budget"):
        budget_kb = int(config[len("ubs_budget"):])
        return UBSICache(ubs_params_for_budget(budget_kb * 1024))
    if config.startswith("ubs_pred_"):
        kind = config[len("ubs_pred_"):]
        table = {
            "dm128": PredictorConfig.direct_mapped(128),
            "sa8lru": PredictorConfig.set_associative(64, 8, "lru"),
            "sa8fifo": PredictorConfig.set_associative(64, 8, "fifo"),
            "full": PredictorConfig.fully_associative(64),
        }
        if kind not in table:
            raise ConfigurationError(f"unknown predictor variant {kind!r}")
        return UBSICache(predictor_config=table[kind])
    if config.startswith("ubs_v"):
        spec = config[len("ubs_v"):]
        fields = spec.split("_")
        try:
            sizes = tuple(int(s) for s in fields[0].split("."))
        except ValueError:
            raise ConfigurationError(
                f"malformed way-size vector in {config!r} "
                "(expected e.g. ubs_v4.8.16.64)"
            ) from None
        predictor = None
        for extra in fields[1:]:
            if extra.startswith("p") and extra[1:].isdigit():
                predictor = PredictorConfig.direct_mapped(int(extra[1:]))
            else:
                raise ConfigurationError(
                    f"unknown ubs_v modifier {extra!r} in {config!r}"
                )
        return UBSICache(UBSParams(way_sizes=sizes),
                         predictor_config=predictor)
    if config.startswith("ubs_ways"):
        spec = config[len("ubs_ways"):]
        n_ways, cfg = spec.split("c")
        sizes = way_config(int(n_ways), int(cfg))
        return UBSICache(UBSParams(way_sizes=sizes))
    if config.startswith("ubs_gap"):
        return UBSICache(UBSParams(run_merge_gap=int(config[len("ubs_gap"):])))
    if config.startswith("ubs_win"):
        return UBSICache(
            UBSParams(candidate_window=int(config[len("ubs_win"):])))
    if config == "ubs_ghrp":
        return UBSICache(UBSParams(replacement="ghrp"))
    if config == "ideal":
        from ..memory.ideal import IdealICache
        return IdealICache()
    raise ConfigurationError(f"unknown L1-I configuration {config!r}")


#: ``<base>_f<N>`` — machine-level FTQ-depth override on any L1-I config
#: (digits required, so ``conv32_fifo`` keeps naming a replacement policy).
_FTQ_SUFFIX = re.compile(r"^(?P<base>.+)_f(?P<ftq>\d+)$")


def split_machine_config(config: str) -> Tuple[str, Optional[MachineParams]]:
    """Split a configuration name into (L1-I config, machine params).

    Config names are pure L1-I organisations except for an optional
    trailing ``_f<N>`` which sets the FTQ depth (a front-end dimension the
    :mod:`repro.dse` search explores). Returns ``(base, None)`` when the
    name carries no machine-level override, so existing configurations
    build byte-identical machines.
    """
    match = _FTQ_SUFFIX.match(config)
    if match is None:
        return config, None
    ftq = int(match.group("ftq"))
    if ftq < 1:
        raise ConfigurationError(
            f"FTQ depth must be positive in configuration {config!r}"
        )
    params = MachineParams(core=replace(CoreParams(), ftq_entries=ftq))
    return match.group("base"), params


def build_machine(trace: ArrayTrace, config: str,
                  telemetry: Optional[Telemetry] = None) -> Machine:
    """Build a full :class:`Machine` from a configuration name.

    The one-stop factory used by the experiment runner: handles every
    :func:`build_icache` name plus machine-level suffixes recognised by
    :func:`split_machine_config`.
    """
    base, params = split_machine_config(config)
    return Machine(trace, build_icache(base), params=params,
                   telemetry=telemetry)
