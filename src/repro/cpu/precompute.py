"""Per-trace precompute: built once per trace, persisted once per host.

Before its first cycle a machine derives three things from its trace
alone: the BPU's fetch-range stream
(:func:`~repro.frontend.ftq.precompute_range_stream`), the stream's
per-cycle delivery chunks (:func:`~repro.frontend.ftq.segment_stream`)
and the back-end's op table (:func:`~repro.cpu.backend.build_op_table`).
Each is a pure function of the trace and a few parameters. :func:`derived`
keeps it on ``trace.derived`` under a key that names those parameters,
so every machine built on the trace shares one.

The trace cache (:meth:`~repro.experiments.runner.ResultCache.array_trace_for`)
puts a :class:`Sidecars` store under ``trace.derived[SIDECARS]`` of every
trace it hands out. :func:`derived` then also persists each entry in a
sidecar file beside the ``.atrace``, and a later process that loads the
same trace from the cache loads the entry instead of building it. A
trace built in memory has no store and builds its entries as before.

A sidecar file is named by a digest of four parts, so it is never
served for anything but what it was built from:

* the trace's content digest (:attr:`~repro.trace.arrays.ArrayTrace.digest`);
* the ``repr`` of the entry's key: ``BranchParams``, the fetch geometry,
  the latency table, the L1-D parameters;
* the results version of the cache that owns the store
  (:data:`~repro.experiments.runner.RESULTS_VERSION`), so the bump that
  retires every cached result after a change of simulator semantics
  retires every sidecar too;
* the :func:`precompute_fingerprint`, a digest of the three builders'
  outputs on a small hand-built trace (:func:`probe_trace`) at two
  parameter points. A builder change that moves any of those outputs
  renames every sidecar; a refactor that moves none keeps them.

Layout (little endian)::

    7s   magic b"REPROPC"
    B    format version (1)
    I    column count c
    4x
    32s  SHA-256 of everything after this header
    c x (c typecode, 7x, Q item count)
    the columns, each at an 8-byte-aligned offset

An entry is its typed columns (``columns()``, rebuilt by the class's
``from_columns``): the seven of a ``RangeStream``, the three of a
``DeliveryChunks``, and an op table's index column plus its distinct
tuples. They load as ``memoryview`` casts over the file's bytes, as
:meth:`~repro.trace.arrays.ArrayTrace.from_buffer` loads a trace. A file
that does not check out (truncated, wrong digest or column count) is
logged, deleted and rebuilt.
"""

from __future__ import annotations

import hashlib
import logging
import struct
from array import array
from pathlib import Path
from typing import Callable, Hashable, Optional

from ..params import BranchParams, CacheParams, CoreParams, MachineParams
from ..trace.arrays import COLUMNS, ArrayTrace
from ..trace.io import publish
from ..trace.record import InstrKind

#: ``trace.derived`` key of the trace's :class:`Sidecars` store.
SIDECARS = "sidecars"

MAGIC = b"REPROPC"
VERSION = 1
_HEADER = struct.Struct("<7sBI4x32s")
_COLUMN = struct.Struct("<c7xQ")

_log = logging.getLogger(__name__)


def derived(trace: ArrayTrace, key: Hashable, cls: type,
            build: Callable[[], object],
            keep: Callable[[object], object] = lambda entry: entry):
    """``trace.derived[key]``: the value already there, else ``keep`` of
    the entry in the trace's sidecar file (a ``cls``), else of
    ``build()``, which is then persisted when the trace has a
    :class:`Sidecars` store. ``keep`` picks what of an entry stays in
    memory (all of it by default)."""
    entries = trace.derived
    value = entries.get(key)
    if value is None:
        store = entries.get(SIDECARS)
        entry = store.load(key, cls) if store is not None else None
        if entry is None:
            entry = build()
            if store is not None:
                store.save(key, entry)
        value = entries[key] = keep(entry)
    return value


class Sidecars:
    """Where a cached trace's derived entries persist: one file per key,
    named ``<trace file>.<digest>.derived`` beside ``trace_path``.
    ``digest`` is the trace's content digest and ``version`` the owning
    cache's results version."""

    __slots__ = ("trace_path", "digest", "version")

    def __init__(self, trace_path: Path, digest: str, version: int) -> None:
        self.trace_path = Path(trace_path)
        self.digest = digest
        self.version = version

    def path(self, key: Hashable) -> Path:
        name = hashlib.sha256(
            f"{self.digest}\0{key!r}\0v{self.version}\0"
            f"{precompute_fingerprint()}".encode()
        ).hexdigest()[:24]
        return self.trace_path.with_name(
            f"{self.trace_path.name}.{name}.derived")

    def load(self, key: Hashable, cls: type):
        """The entry stored for ``key``, or None (no file, or a damaged
        one, which is deleted)."""
        path = self.path(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            _log.warning("ignoring unreadable sidecar %s (%s)", path, exc)
            return None
        try:
            return cls.from_columns(decode(data))
        except (ValueError, TypeError, struct.error) as exc:
            _log.warning("rebuilding damaged sidecar %s (%s: %s)", path,
                         type(exc).__name__, exc)
            path.unlink(missing_ok=True)
            return None

    def save(self, key: Hashable, value) -> None:
        """Publish ``value``'s columns for ``key``. A failed write only
        costs a later process the build, so it is logged, not raised."""
        path = self.path(key)
        columns = value.columns()
        parts = payload(columns)
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part)
        header = _HEADER.pack(MAGIC, VERSION, len(columns), digest.digest())

        def write(tmp: str) -> None:
            with open(tmp, "wb") as fh:
                fh.write(header)
                fh.writelines(parts)

        try:
            publish(path, write)
        except OSError as exc:
            _log.warning("could not write sidecar %s (%s)", path, exc)


def _pad(n: int) -> int:
    return -n % 8


def payload(columns) -> list:
    """The parts of a sidecar file after its header, without copying
    ``columns`` (arrays or ``memoryview`` casts with a one-character
    format): the column table, then each column's bytes padded to 8."""
    table = []
    body = []
    for column in columns:
        view = memoryview(column)
        table.append(_COLUMN.pack(view.format.encode(), len(view)))
        body += (view.cast("B"), bytes(_pad(view.nbytes)))
    return table + body


def decode(data: bytes) -> tuple:
    """The columns of a sidecar file, as ``memoryview`` casts over
    ``data``; ``ValueError`` if the bytes are not a whole, intact file."""
    view = memoryview(data)
    if len(view) < _HEADER.size:
        raise ValueError(f"{len(view)} bytes is too short for the header")
    magic, version, n_columns, digest = _HEADER.unpack_from(view, 0)
    if magic != MAGIC or version != VERSION:
        raise ValueError(f"not a version-{VERSION} sidecar")
    if hashlib.sha256(view[_HEADER.size:]).digest() != digest:
        raise ValueError("content digest mismatch (truncated or damaged)")
    offset = _HEADER.size + n_columns * _COLUMN.size
    specs = [_COLUMN.unpack_from(view, _HEADER.size + i * _COLUMN.size)
             for i in range(n_columns)]
    columns = []
    for fmt, n in specs:
        fmt = fmt.decode()
        nbytes = n * struct.calcsize(fmt)
        columns.append(view[offset:offset + nbytes].cast(fmt))
        offset += nbytes + _pad(nbytes)
    if offset != len(view):
        raise ValueError(f"{len(view)} bytes where the columns need {offset}")
    return tuple(columns)


# -- the precompute fingerprint ----------------------------------------------

_fingerprint: Optional[str] = None

#: The fingerprint's second parameter point, beside the defaults: a BTB
#: of 64 entries and a return-address stack of 8, which the probe
#: overflows many times over, a smaller perceptron, a wider fetch and an
#: L1-D of 16 blocks.
SMALL_POINT = MachineParams(
    branch=BranchParams(btb_entries=64, btb_ways=4, ras_entries=8,
                        perceptron_tables=4, perceptron_entries=256),
    core=CoreParams(fetch_bytes=32, fetch_width=6),
    l1d=CacheParams(name="L1D", size=1024, ways=2, latency=5,
                    mshr_entries=4))


def probe_trace() -> ArrayTrace:
    """The fingerprint's input, about 2,400 instructions of every
    :class:`~repro.trace.record.InstrKind`: 32 passes over a loop with
    variable-length instructions that straddle 64-byte blocks, loads and
    stores that both hit and miss an L1-D, a conditional branch taken on
    every third pass, a direct call, an indirect call and an indirect
    jump whose targets change from pass to pass, and a direct jump.
    Every eighth pass also makes

    * a self-recursive call 72 deep, past the 64 return-address-stack
      entries of the default :class:`~repro.params.BranchParams`;
    * a walk over ten jumps that share one set of the default BTB (more
      than its eight ways), each reached through one hot indirect jump
      in the same set, so an LRU victim differs from any other choice;
    * a chain of 96 jumps, more than the small BTB of
      :data:`SMALL_POINT` holds.
    """
    rows = []

    def add(pc: int, size: int, kind: InstrKind, taken: bool = False,
            target: int = 0, src1: int = -1, src2: int = -1, dst: int = -1,
            mem_addr: int = 0) -> int:
        rows.append({"pc": pc, "target": target, "mem_addr": mem_addr,
                     "size": size, "kind": kind, "taken": taken,
                     "src1": src1, "src2": src2, "dst": dst})
        return pc + size

    def jump(pc: int, target: int) -> int:
        add(pc, 4, InstrKind.JUMP, taken=True, target=target)
        return target

    loop, func, funcs = 0x1000, 0x9000, (0xA000, 0xA400)
    tail, side = loop + 0x400, 0x20000
    # The default BTB has 512 sets indexed by pc >> 2, so a 2 KiB stride
    # maps the hub and every rung of the ladder to one set.
    hub, ladder = 0x40000, [0x40800 + 0x800 * k for k in range(10)]
    rec, depth = 0xC000, 72
    chain = [0x80000 + 36 * k for k in range(96)]
    passes = 32
    for i in range(passes):
        pc = loop
        for k in range(6):
            pc = add(pc, 2 + 3 * k % 11, InstrKind.ALU, src1=k, src2=k + 1,
                     dst=(k + 2) % 8)
        pc = add(pc, 1, InstrKind.NOP)
        pc = add(pc, 5, InstrKind.LOAD, src1=1, dst=3,
                 mem_addr=0x100000 + 64 * (7 * i % 40))
        pc = add(pc, 3, InstrKind.STORE, src1=3, src2=2,
                 mem_addr=0x200000 + 4096 * i)
        skip = i % 3 == 0
        branch = pc
        pc = add(pc, 4, InstrKind.BR_COND, taken=skip, target=branch + 8)
        if skip:
            pc = branch + 8
        else:
            pc = add(pc, 4, InstrKind.MUL, src1=3, dst=4)
        ret = add(pc, 5, InstrKind.CALL, taken=True, target=func)
        fpc = func
        for _ in range(3):
            fpc = add(fpc, 4, InstrKind.FP, src1=4, dst=5)
        add(fpc, 1, InstrKind.RET, taken=True, target=ret)
        callee = funcs[i % 2]
        ret = add(ret, 3, InstrKind.CALL_IND, taken=True, target=callee,
                  src1=6)
        add(add(callee, 2, InstrKind.ALU, src1=6, dst=6), 1, InstrKind.RET,
            taken=True, target=ret)
        case = ret + 64 + 32 * (i % 3)
        add(ret, 3, InstrKind.BR_IND, taken=True, target=case, src1=7)
        pc = jump(case, tail)
        extra = i % 8 == 7
        pc = add(pc, 2, InstrKind.BR_COND, taken=extra, target=side)
        if extra:
            pc = add(side, 5, InstrKind.CALL, taken=True, target=rec)
            for level in range(depth + 1):
                add(rec, 4, InstrKind.ALU, src1=2, dst=2)
                add(rec + 4, 2, InstrKind.BR_COND, taken=level == depth,
                    target=rec + 11)
                if level < depth:
                    add(rec + 6, 5, InstrKind.CALL, taken=True, target=rec)
            for level in range(depth + 1):
                add(rec + 11, 1, InstrKind.RET, taken=True,
                    target=rec + 11 if level < depth else pc)
            head = pc
            for k, rung in enumerate(ladder):
                add(jump(head, hub), 4, InstrKind.BR_IND, taken=True,
                    target=rung, src1=7)
                pc = add(jump(rung, head + 4), 2, InstrKind.BR_COND,
                         taken=k < len(ladder) - 1, target=head)
            jump(pc, chain[0])
            for k, site in enumerate(chain):
                pc = jump(site, chain[k + 1] if k + 1 < len(chain)
                          else pc + 4)
            pc = jump(pc, tail + 2)
        add(pc, 2, InstrKind.BR_COND, taken=i < passes - 1, target=loop)
    return ArrayTrace(tuple(array(fmt, [row[name] for row in rows])
                            for name, fmt in COLUMNS), len(rows))


def precompute_fingerprint() -> str:
    """SHA-256 (hex) of every builder's output on :func:`probe_trace`,
    at the default parameters and at :data:`SMALL_POINT`: the range
    stream, its delivery chunks, and the op table with and without the
    private L1-D. Computed once per process."""
    global _fingerprint
    if _fingerprint is None:
        from ..frontend.bpu import BranchPredictionUnit
        from ..frontend.ftq import precompute_range_stream, segment_stream
        from .backend import EXEC_LATENCY_TABLE, build_op_table

        trace = probe_trace()
        digest = hashlib.sha256()
        for params in (MachineParams(), SMALL_POINT):
            stream = precompute_range_stream(
                trace, BranchPredictionUnit(params.branch))
            outputs = (
                stream,
                segment_stream(trace, stream, params.core.fetch_bytes,
                               params.core.fetch_width),
                build_op_table(trace, EXEC_LATENCY_TABLE, params.l1d),
                build_op_table(trace, EXEC_LATENCY_TABLE, None),
            )
            for value in outputs:
                for part in payload(value.columns()):
                    digest.update(part)
        _fingerprint = digest.hexdigest()
    return _fingerprint
