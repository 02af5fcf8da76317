"""One-pass out-of-order back-end timing model.

Instructions are accepted in fetch order. For each we compute dispatch
(ROB-gated), issue (data dependencies through a register scoreboard),
completion (functional-unit latency; loads/stores are timed through the
memory hierarchy) and in-order commit bounded by the commit width. This is
the standard fast approximation of a ChampSim-style core: front-end-bound
behaviour, dependency chains and memory latency are modelled; scheduler
port conflicts are not (the paper's results are front-end dominated).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..memory.cache import Cache
from ..memory.hierarchy import MemoryHierarchy
from ..params import CacheParams, CoreParams
from ..trace.record import EXEC_LATENCY, InstrKind

#: Plain-int kind codes (column reads yield ints, not InstrKind members).
_LOAD_I = int(InstrKind.LOAD)
_STORE_I = int(InstrKind.STORE)

#: Negative op latencies: memory ops whose timing goes to the hierarchy.
#: ``_LOAD``/``_STORE`` look the L1-D up live (co-runs share one L1-D);
#: ``_LOAD_MISS``/``_STORE_MISS`` are a private L1-D's misses, already
#: known from :func:`build_op_table`'s replay (hits became fixed latencies).
_LOAD, _STORE, _LOAD_MISS, _STORE_MISS = -1, -2, -3, -4

#: Scoreboard indices of the int8 register operands. An absent source
#: reads register 65, which is never written and so always ready at 0; an
#: absent destination writes register 64, which is never read.
_SRC_INDEX = {r: (r & 63) if r >= 0 else 65 for r in range(-128, 128)}
_DST_INDEX = {r: (r & 63) if r >= 0 else 64 for r in range(-128, 128)}


def build_op_table(trace, exec_latency: Tuple[int, ...],
                   l1d: Optional[CacheParams]) -> list:
    """The back-end's per-instruction ``(lat, src1, src2, dst)`` tuples for
    a columnar ``trace``, interned so each distinct tuple is stored once.

    ``lat`` is the execution latency, or a negative code for a memory op
    that goes to the hierarchy; the register fields are scoreboard indices
    (see ``_SRC_INDEX``/``_DST_INDEX``). No data address is stored: the
    delivery loop reads ``trace.mem_addr`` on the hierarchy path only, so
    one table serves every thread offset.

    With ``l1d`` given, the table is for a core whose L1-D sees only this
    trace's loads and stores, in program order, filled on each miss
    without timing; so its hit/miss outcomes depend on the trace alone.
    They are replayed here once through a fresh ``Cache(l1d)``: hit loads
    become ``l1d.latency`` ops, hit stores latency-1 ops, and only misses
    keep a code (``_LOAD_MISS``/``_STORE_MISS``). A thread offset only
    flips tag bits, so the outcomes hold at any offset.
    """
    code = [_LOAD if k == _LOAD_I else _STORE if k == _STORE_I else lat
            for k, lat in enumerate(exec_latency)]
    lats = list(map(code.__getitem__, trace.kind))
    if l1d is not None:
        cache = Cache(l1d)
        touch, fill = cache.touch, cache.fill
        mem = trace.mem_addr
        for i, lat in enumerate(lats):
            if lat < 0:
                addr = mem[i]
                if touch(addr):
                    lats[i] = l1d.latency if lat == _LOAD else 1
                else:
                    fill(addr)
                    lats[i] = _LOAD_MISS if lat == _LOAD else _STORE_MISS
    src = _SRC_INDEX.__getitem__
    interned: dict = {}
    intern = interned.setdefault
    return [intern(op, op) for op in zip(lats, map(src, trace.src1),
                                         map(src, trace.src2),
                                         map(_DST_INDEX.__getitem__,
                                             trace.dst))]


class Backend:
    """Scoreboard-based OoO back-end."""

    __slots__ = ("params", "hierarchy", "_rob", "_ring", "_count",
                 "_reg_ready", "_last_commit", "_commits_this_cycle",
                 "_decode_latency", "_commit_width", "_exec_latency",
                 "_ops", "_kind", "_mem_addr", "_addr_offset", "l1d_misses",
                 "_l1d_touch", "_l1d_latency", "_below_l1",
                 "_data_load_miss", "_data_store_miss")

    def __init__(self, params: CoreParams,
                 hierarchy: MemoryHierarchy) -> None:
        self.params = params
        self.hierarchy = hierarchy
        rob = params.rob_entries
        self._rob = rob
        # commit cycle of instruction (count - rob + slot) lives in slot.
        self._ring: List[int] = [0] * rob
        self._count = 0
        # 64 architectural registers, the sink (64) and the zero (65).
        self._reg_ready: List[int] = [0] * 66
        self._last_commit = 0
        self._commits_this_cycle = 0
        # Hoisted constants for the delivery loop (accept).
        self._decode_latency = params.decode_latency
        self._commit_width = params.commit_width
        # EXEC_LATENCY as a tuple indexed by the InstrKind value.
        self._exec_latency = tuple(
            EXEC_LATENCY[kind] for kind in sorted(EXEC_LATENCY, key=int)
        )
        # The bound trace's op table and the columns read beside it.
        self._ops: List[Tuple[int, int, int, int]] = []
        self._kind = b""
        self._mem_addr = ()
        self._addr_offset = 0
        #: Private-L1-D misses delivered (see :meth:`bind_trace`).
        self.l1d_misses = 0
        # The shared (live) L1-D, inlined: a hit is one bound call; a miss
        # goes on to the hierarchy's data_load_miss/data_store_miss.
        self._l1d_touch = hierarchy.l1d.touch
        self._l1d_latency = hierarchy.params.l1d.latency
        self._below_l1 = hierarchy._below_l1
        self._data_load_miss = hierarchy.data_load_miss
        self._data_store_miss = hierarchy.data_store_miss

    @property
    def instructions(self) -> int:
        return self._count

    @property
    def loads(self) -> int:
        """Loads delivered so far."""
        return bytes(self._kind[:self._count]).count(_LOAD_I)

    @property
    def stores(self) -> int:
        """Stores delivered so far."""
        return bytes(self._kind[:self._count]).count(_STORE_I)

    @property
    def l1d_hits(self) -> int:
        """Private-L1-D hits delivered so far (see :meth:`bind_trace`)."""
        return self.loads + self.stores - self.l1d_misses

    def bind_trace(self, trace, addr_offset: int = 0,
                   private_l1d: bool = False) -> None:
        """Bind the op table of a columnar ``trace`` (see
        :func:`build_op_table`). Machines bind at construction, so timed
        runs never pay for the build.

        ``addr_offset`` shifts every data address by a constant — SMT
        co-runs give each hardware thread a disjoint address space while
        sharing one memory hierarchy (see :mod:`repro.smt.machine`).

        ``private_l1d`` says this back-end is the L1-D's only user (a
        one-thread core). Its L1-D outcomes are then folded into the
        table, and the live ``hierarchy.l1d`` is never touched: misses go
        straight to the levels below, with the arguments and in the order
        the live path would use, and :attr:`l1d_hits`/:attr:`l1d_misses`
        count the outcomes delivered. Co-runs interleave their threads'
        accesses by timing, so they keep the live, shared L1-D.

        The table is a pure function of the trace, the latency table and
        the private L1-D's parameters, so it is kept on ``trace.derived``:
        every machine built on a trace shares one table per L1-D mode, at
        every thread offset.
        """
        l1d = self.hierarchy.params.l1d if private_l1d else None
        key = ("backend_ops", self._exec_latency, l1d)
        ops = trace.derived.get(key)
        if ops is None:
            ops = build_op_table(trace, self._exec_latency, l1d)
            trace.derived[key] = ops
        self._ops = ops
        self._kind = trace.kind
        self._mem_addr = trace.mem_addr
        self._addr_offset = addr_offset

    def rob_has_space(self, cycle: int) -> bool:
        """Can an instruction fetched at ``cycle`` claim a ROB slot?"""
        # The slot we'd reuse belongs to instruction (count - rob); it must
        # have committed by the time this instruction dispatches (a slot
        # not yet used holds 0).
        return self._ring[self._count % self._rob] \
            <= cycle + self._decode_latency

    def rob_free_cycle(self) -> int:
        """Cycle at which the next ROB slot frees (for stall skip-ahead)."""
        if self._count < self._rob:
            return 0
        return self._ring[self._count % self._rob] - self._decode_latency

    def accept(self, n: int, fetch_cycle: int) -> Tuple[int, int]:
        """Time the next ``n`` instructions of the bound trace, fetched at
        ``fetch_cycle``; returns the last one's (complete_cycle,
        commit_cycle). Instructions are delivered exactly once and in
        order, so the next one is always trace index ``_count``.

        Per instruction: dispatch waits for decode and a free ROB slot,
        issue for both source registers, completion adds the execution
        latency (loads through the L1-D and, on a miss, the hierarchy;
        stores one cycle after issue, their miss handled off the critical
        path), and commit is in order with at most ``commit_width``
        instructions per cycle. The scoreboard state lives in locals and
        each instruction is one unpack of the op tuples
        :meth:`bind_trace` bound — the machine's delivery loop is the
        hottest call site in the simulator. The memory paths read their
        state from ``self``: most ops never take them, and a call
        delivers about three instructions, so hoisting would cost more
        than it saves."""
        count = self._count
        rob = self._rob
        ring = self._ring
        reg_ready = self._reg_ready
        commit_width = self._commit_width
        last_commit = self._last_commit
        commits_this_cycle = self._commits_this_cycle
        base_dispatch = fetch_cycle + self._decode_latency
        complete = 0
        for lat, src1, src2, dst in self._ops[count:count + n]:
            # The ring starts zeroed, so a slot not yet used never delays.
            slot = count % rob
            dispatch = ring[slot]
            if dispatch < base_dispatch:
                dispatch = base_dispatch
            ready = reg_ready[src1]
            if ready < dispatch:
                ready = dispatch
            if reg_ready[src2] > ready:
                ready = reg_ready[src2]

            # Negative codes, see _LOAD.._STORE_MISS.
            if lat >= 0:
                complete = ready + lat
            else:
                mem = self._mem_addr[count] + self._addr_offset
                if lat == -3:
                    self.l1d_misses += 1
                    complete = ready + self._l1d_latency
                    complete += self._below_l1(mem, complete)
                elif lat == -4:
                    self.l1d_misses += 1
                    self._below_l1(mem, ready)
                    complete = ready + 1
                elif lat == -1:
                    if self._l1d_touch(mem):
                        complete = ready + self._l1d_latency
                    else:
                        complete = ready + self._data_load_miss(mem, ready)
                else:
                    if not self._l1d_touch(mem):
                        self._data_store_miss(mem, ready)
                    complete = ready + 1
            reg_ready[dst] = complete

            if complete > last_commit:
                last_commit = complete
                commits_this_cycle = 1
            elif commits_this_cycle >= commit_width:
                last_commit += 1
                commits_this_cycle = 1
            else:
                commits_this_cycle += 1
            ring[slot] = last_commit
            count += 1

        self._count = count
        self._last_commit = last_commit
        self._commits_this_cycle = commits_this_cycle
        return complete, last_commit
