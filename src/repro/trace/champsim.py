"""ChampSim trace interoperability.

The paper's simulator is ChampSim; its (pre-2023) trace format is a
stream of fixed 64-byte records:

.. code-block:: c

    typedef struct trace_instr_format {
        unsigned long long ip;
        unsigned char is_branch;
        unsigned char branch_taken;
        unsigned char destination_registers[2];
        unsigned char source_registers[4];
        unsigned long long destination_memory[2];
        unsigned long long source_memory[4];
    } trace_instr_format_t;

This module converts between that format and the columns of an
:class:`~repro.trace.arrays.ArrayTrace`, record by record and without
building :class:`~repro.trace.record.Instruction` objects, so users can
feed real ChampSim traces (e.g. the public IPC-1 set) to this simulator,
and export our synthetic workloads for cross-validation in ChampSim
itself.

Conversion notes (information the ChampSim format does not carry):

* instruction **size** is inferred from the next record's IP (bounded to
  1..15 bytes; the final instruction defaults to 4);
* branch **kind** is inferred ChampSim-style from the register/memory
  pattern (writes IP + reads SP => call, reads IP+SP+memory => return,
  conditional if it reads flags/IP without the stack, else jump);
* branch **targets** are the next record's IP when taken.
"""

from __future__ import annotations

import gzip
import struct
from array import array
from pathlib import Path
from typing import BinaryIO, Sequence, Union

from ..errors import TraceError
from .arrays import COLUMNS, ArrayTrace
from .record import IS_BRANCH, InstrKind

RECORD = struct.Struct("<QBB2B4B2Q4Q")
assert RECORD.size == 64

#: ChampSim's conventional special register numbers.
REG_SP = 6
REG_IP = 26
REG_FLAGS = 25

PathLike = Union[str, Path]


def _open(path: PathLike, mode: str) -> BinaryIO:
    path = Path(path)
    if path.suffix in (".gz", ".xz"):
        if path.suffix == ".xz":
            import lzma
            return lzma.open(path, mode)  # type: ignore[return-value]
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)


def _classify(dst_regs: Sequence[int], src_regs: Sequence[int],
              src_mem: Sequence[int], taken: bool) -> InstrKind:
    """Reproduce ChampSim's branch classification heuristics."""
    writes_ip = REG_IP in dst_regs
    reads_ip = REG_IP in src_regs
    reads_sp = REG_SP in src_regs
    writes_sp = REG_SP in dst_regs
    reads_flags = REG_FLAGS in src_regs
    reads_mem = any(src_mem)

    if not writes_ip:
        return InstrKind.JUMP              # unusual; treat as direct
    if reads_sp and reads_mem and not reads_ip:
        return InstrKind.RET
    if writes_sp and reads_ip:
        return InstrKind.CALL
    if reads_flags:
        return InstrKind.BR_COND
    if not reads_ip:
        return InstrKind.BR_IND
    return InstrKind.JUMP


def read_champsim(path: PathLike, limit: int = 0) -> ArrayTrace:
    """Load a ChampSim trace file (optionally ``.gz``/``.xz``) into the
    columns of an :class:`ArrayTrace`, at most ``limit`` instructions
    when ``limit`` is set."""
    with _open(path, "rb") as fh:
        # One record past the limit gives the last instruction its size.
        data = fh.read(RECORD.size * (limit + 1)) if limit else fh.read()
    if len(data) % RECORD.size:
        raise TraceError(f"{path}: truncated ChampSim record")
    records = list(RECORD.iter_unpack(data))
    n_records = len(records)
    n = min(limit, n_records) if limit else n_records

    columns = {name: array(fmt) for name, fmt in COLUMNS}
    pc_a = columns["pc"].append
    target_a = columns["target"].append
    mem_a = columns["mem_addr"].append
    size_a = columns["size"].append
    kind_a = columns["kind"].append
    taken_a = columns["taken"].append
    src1_a = columns["src1"].append
    dst_a = columns["dst"].append
    for i in range(n):
        (ip, is_branch, taken,
         d0, d1, s0, s1, s2, s3,
         dmem0, dmem1, smem0, smem1, smem2, smem3) = records[i]
        next_ip = records[i + 1][0] if i + 1 < n_records else ip + 4
        if is_branch and taken:
            size = 4
            target = next_ip
        else:
            delta = next_ip - ip
            size = delta if 1 <= delta <= 15 else 4
            target = 0
        dst_regs = (d0, d1)
        src_regs = (s0, s1, s2, s3)
        src_mem = (smem0, smem1, smem2, smem3)
        if is_branch:
            kind = _classify(dst_regs, src_regs, src_mem, bool(taken))
        elif dmem0:
            kind = InstrKind.STORE
        elif smem0:
            kind = InstrKind.LOAD
        else:
            kind = InstrKind.ALU
        mem = dmem0 or smem0 or 0
        gp_dst = next((r for r in dst_regs if r and r not in
                       (REG_IP, REG_SP, REG_FLAGS)), 0)
        gp_src = next((r for r in src_regs if r and r not in
                       (REG_IP, REG_SP, REG_FLAGS)), 0)
        pc_a(ip)
        size_a(size)
        kind_a(kind)
        taken_a(1 if is_branch and taken else 0)
        target_a(target)
        src1_a((gp_src & 63) if gp_src else -1)
        dst_a((gp_dst & 63) if gp_dst else -1)
        mem_a(mem if kind in (InstrKind.LOAD, InstrKind.STORE) else 0)
    columns["src2"] = array("b", [-1]) * n
    return ArrayTrace(tuple(columns[name] for name, _ in COLUMNS), n)


def write_champsim(path: PathLike, trace: ArrayTrace) -> int:
    """Export a trace as a ChampSim trace (lossy: sizes/targets are
    carried implicitly by the IP sequence, exactly as in real traces)."""
    with _open(path, "wb") as fh:
        for pc, kind, taken, src1, dst_reg, mem_addr in zip(
                trace.pc, trace.kind, trace.taken, trace.src1, trace.dst,
                trace.mem_addr):
            is_branch = 1 if IS_BRANCH[kind] else 0
            dst = [0, 0]
            src = [0, 0, 0, 0]
            dmem = [0, 0]
            smem = [0, 0, 0, 0]
            if is_branch:
                dst[0] = REG_IP
                if kind == InstrKind.BR_COND:
                    src[0] = REG_FLAGS
                    src[1] = REG_IP
                elif kind in (InstrKind.CALL, InstrKind.CALL_IND):
                    dst[1] = REG_SP
                    src[0] = REG_IP
                    src[1] = REG_SP
                elif kind == InstrKind.RET:
                    src[0] = REG_SP
                    smem[0] = 0x7FFF_F000
                elif kind == InstrKind.JUMP:
                    src[0] = REG_IP
                # BR_IND: writes IP without reading it.
            else:
                if dst_reg >= 0:
                    dst[0] = max(1, dst_reg & 63)
                if src1 >= 0:
                    src[0] = max(1, src1 & 63)
                if kind == InstrKind.STORE:
                    dmem[0] = mem_addr
                elif kind == InstrKind.LOAD:
                    smem[0] = mem_addr
            fh.write(RECORD.pack(pc, is_branch, taken, *dst, *src,
                                 *dmem, *smem))
    return len(trace)
