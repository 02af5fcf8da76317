#!/usr/bin/env python3
"""Deterministic cost gate: bytecodes and Python calls per simulated
(and per synthesised) instruction.

Usage::

    python3 tools/opcount.py           # count, print, gate on the table
    python3 tools/opcount.py --write   # count, print, re-record the table

It runs ``Machine.run`` under ``sys.settrace`` with opcode events on
every frame of the ``repro`` package and counts the bytecodes each
function executes and the Python calls made into the package. The
workload is 20K instructions of server_000 (5K warm-up, 15K measured)
on conv32, ubs, small16, distill32 and the 16-way DSE point, plus the
``server_000+client_000`` co-run (20K instructions per thread, the same
windows) on conv32 and ubs. Traces and machines are built before the
tracer starts, so only the cycle loop is counted.

One more row, ``synth/server_000``, counts trace synthesis:
``generate_trace`` of 20K server_000 instructions, program build and
walk. It counts the frames of ``repro.trace.synthesis`` and
``repro.trace.program`` and those of the stdlib ``random`` module, so a
draw inlined from a ``random.py`` method into the package moves
bytecodes between counted frames instead of out of view. The
``ArrayTrace`` it returns is not counted: its sidecar build takes a
numpy path where numpy is installed.

A count does not depend on the host, the load or the hash seed, so it
resolves a hot-path change that one timed run cannot. It misses costs
inside C code (a dict against a list operation, allocation, the cyclic
GC), so it attributes; it does not prove a speedup. A wall-time claim
needs ``tools/ab.py``.

The output is one row per configuration: bytecodes and calls per
simulated instruction, then the bytecodes split by stage (``STAGES``)
through the function-to-stage map ``STAGE_OF``. ``--write`` records the
integer counts and ``platform.python_version()`` in
``benchmarks/perf/opcount.json``. Without it the tool compares the run
with that table and exits 1 when any configuration's bytecode total is
more than ``TOLERANCE`` above it, or when the table was recorded under
another CPython major.minor (counts differ between versions). A lower
total passes and asks for a re-record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "benchmarks" / "perf" / "opcount.json"

#: A configuration fails the gate when its bytecode total exceeds the
#: table's by more than this share.
TOLERANCE = 0.01

INSTRUCTIONS = 20_000
WARMUP = 5_000
MEASURE = INSTRUCTIONS - WARMUP
DSE_POINT = "ubs_v4.4.8.8.8.12.12.16.24.32.36.36.52.60.64.64"
SOLO_WORKLOAD = "server_000"
SOLO_CONFIGS = ("conv32", "ubs", "small16", "distill32", DSE_POINT)
CORUN_WORKLOADS = ("server_000", "client_000")
CORUN_CONFIGS = ("conv32", "ubs")
SYNTH_KEY = "synth/server_000"

STAGES = ("fetch", "fdip", "bpu", "fills", "backend", "below_l1", "loop",
          "other")

#: The stage each ``repro`` function's bytecodes count towards, by
#: ``co_qualname``. A helper reached from two stages counts under the one
#: that calls it per cycle. A nested function or comprehension not named
#: here counts with its enclosing function; anything else is ``other``
#: (efficiency sampling, storage snapshots, window bookkeeping).
STAGE_OF: Dict[str, str] = {
    # L1-I fetch: the lookup, its policy and predictor hooks, demand misses.
    "ConventionalICache.lookup": "fetch",
    "SmallBlockICache.lookup": "fetch",
    "DistillationICache.lookup": "fetch",
    "UBSICache.lookup": "fetch",
    "UBSICache._holding_way": "fetch",
    "UBSICache._partial_miss": "fetch",
    "UsefulnessPredictor.mark": "fetch",
    "UsefulnessPredictor.contains": "fetch",
    "LRUPolicy.on_hit": "fetch",
    "ReplacementPolicy.note_miss": "fetch",
    "Core._handle_miss": "fetch",
    "Core._start_fill": "fetch",
    # FDIP: the prefetch walk, its probes and the MSHR file.
    "Core._simulate.<locals>.run_fdip": "fdip",
    "ConventionalICache.probe_range": "fdip",
    "SmallBlockICache.probe_range": "fdip",
    "DistillationICache.probe_range": "fdip",
    "UBSICache.probe_range": "fdip",
    "MSHRFile.full": "fdip",
    "MSHRFile.lookup": "fdip",
    "MSHRFile.allocate": "fdip",
    "MSHRFile.expire": "fdip",
    # BPU: the range-stream replay.
    "Core._simulate.<locals>.run_bpu": "bpu",
    # Fills: installs, victims, evictions.
    "Core._process_fills": "fills",
    "ConventionalICache.fill": "fills",
    "ConventionalICache._evict": "fills",
    "SmallBlockICache.fill": "fills",
    "SmallBlockICache._install_chunk": "fills",
    "DistillationICache.fill": "fills",
    "DistillationICache._distill": "fills",
    "UBSICache.fill": "fills",
    "UBSICache._install_victim": "fills",
    "UBSICache._evict_way": "fills",
    "UsefulnessPredictor.insert": "fills",
    "UsefulnessPredictor._find": "fills",
    "extract_runs": "fills",
    "mask_of_run": "fills",
    "LRUPolicy.on_fill": "fills",
    "LRUPolicy.victim": "fills",
    "ReplacementPolicy.on_evict": "fills",
    "ReplacementPolicy.should_admit": "fills",
    "ByteUsageHistogram.add": "fills",
    # Back end: the op-table replay and a co-run's live L1-D.
    "Backend.accept": "backend",
    "Backend.rob_free_cycle": "backend",
    "Cache.touch": "backend",
    "Cache.fill": "backend",
    # Below the L1s: the L2/L3 walk and DRAM.
    "MemoryHierarchy.fetch_block": "below_l1",
    "MemoryHierarchy.data_load_miss": "below_l1",
    "MemoryHierarchy.data_store_miss": "below_l1",
    "MemoryHierarchy._below_l1": "below_l1",
    "DRAM.access": "below_l1",
    # The cycle loop and its port arbitration.
    "Core._simulate": "loop",
    "Core._skip_stalls": "loop",
    "Core._stall_cycles": "loop",
    "Core._arbitrate": "loop",
    "HardwareThread.take_port": "loop",
    "HardwareThread.park": "loop",
}


#: The synthesis row's stages: the program build, the walk, the stdlib
#: ``random`` methods either one calls, and the rest (``generate_trace``).
SYNTH_STAGES = ("build", "walk", "random", "other")

#: The modules whose frames the synthesis row counts, with ``random``.
SYNTH_MODULES = ("repro.trace.synthesis", "repro.trace.program")

#: The synthesis stage of each ``repro.trace`` class or function, by the
#: first component of ``co_qualname``.
SYNTH_STAGE_OF: Dict[str, str] = {
    "ProgramBuilder": "build",
    "_geometric": "build",
    "_below": "build",
    "BasicBlock": "build",
    "Function": "build",
    "Program": "build",
    "TraceWalker": "walk",
    "_ZipfSampler": "walk",
}

#: Counter keys of frames in the stdlib ``random`` module start with this.
RANDOM_PREFIX = "random:"


def synth_stage_of(qualname: str) -> str:
    """``qualname``'s synthesis stage (a ``RANDOM_PREFIX`` key is a
    ``random`` module frame)."""
    if qualname.startswith(RANDOM_PREFIX):
        return "random"
    return SYNTH_STAGE_OF.get(qualname.split(".")[0], "other")


def stage_of(qualname: str) -> str:
    """``qualname``'s stage: its own entry, else its enclosing
    function's, else ``other``."""
    while True:
        stage = STAGE_OF.get(qualname)
        if stage is not None:
            return stage
        head, sep, _ = qualname.rpartition(".<locals>.")
        if not sep:
            return "other"
        qualname = head


def configs() -> List[str]:
    """Every simulated configuration the tool counts, as
    ``workload/config`` (the synthesis row, ``SYNTH_KEY``, comes after
    them)."""
    corun = "+".join(CORUN_WORKLOADS)
    return ([f"{SOLO_WORKLOAD}/{c}" for c in SOLO_CONFIGS]
            + [f"{corun}/{c}" for c in CORUN_CONFIGS])


def _trace(run, roots: Tuple[str, ...]) -> Tuple[Counter, int]:
    """Run ``run()`` under the tracer: the bytecodes of each function
    whose file starts with one of ``roots``, by qualname (a ``random``
    module function's under ``RANDOM_PREFIX``), and the calls into them."""
    import random
    ops: Counter = Counter()
    calls = 0

    def opcode(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            if code.co_filename == random.__file__:
                ops[RANDOM_PREFIX + code.co_qualname] += 1
            else:
                ops[code.co_qualname] += 1
        return opcode

    def call(frame, event, arg):
        nonlocal calls
        if not frame.f_code.co_filename.startswith(roots):
            return None
        calls += 1
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return opcode

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return ops, calls


def count(key: str) -> Tuple[dict, Counter]:
    """Run one ``workload/config`` (or ``SYNTH_KEY``) under the tracer:
    its table entry (integer counts) and the bytecodes of each function
    by qualname."""
    import importlib
    import random

    import repro
    from repro.cpu.machine import build_machine
    from repro.smt.machine import build_smt_machine
    from repro.trace.synthesis import generate_trace
    from repro.trace.workloads import get_workload

    workloads, config = key.split("/")
    if key == SYNTH_KEY:
        spec = get_workload(config).spec
        traces: list = []
        run = lambda: traces.append(generate_trace(spec, INSTRUCTIONS))  # noqa: E731
        roots = tuple(importlib.import_module(m).__file__
                      for m in SYNTH_MODULES) + (random.__file__,)
        stages, stage = SYNTH_STAGES, synth_stage_of
    else:
        traces = [generate_trace(get_workload(w).spec, INSTRUCTIONS)
                  for w in workloads.split("+")]
        if len(traces) == 1:
            machine = build_machine(traces[0], config)
            run = lambda: machine.run(WARMUP, MEASURE)  # noqa: E731
        else:
            machine = build_smt_machine(traces, config)
            run = lambda: machine.run([(WARMUP, MEASURE)] * len(traces))  # noqa: E731
        roots = (os.path.dirname(repro.__file__),)
        stages, stage = STAGES, stage_of
    ops, calls = _trace(run, roots)
    split = dict.fromkeys(stages, 0)
    for qualname, n in ops.items():
        split[stage(qualname)] += n
    instructions = (len(traces[0]) if key == SYNTH_KEY
                    else INSTRUCTIONS * len(traces))
    entry = {"instructions": instructions,
             "bytecodes": sum(ops.values()), "calls": calls,
             "stages": split}
    return entry, ops


def render(counts: Dict[str, dict]) -> List[str]:
    """The per-instruction table: totals, calls and the stage split,
    under one header per set of stages."""
    lines: List[str] = []
    header = None
    for key, c in counts.items():
        stages = tuple(c["stages"])
        if stages != header:
            header = stages
            what = ("synthesised" if stages == SYNTH_STAGES
                    else "simulated")
            head = f"per {what} instruction"
            head = f"{head:<34} {'bytecodes':>9} {'calls':>6}"
            lines.append(head + "".join(f" {s:>8}" for s in stages))
        n = c["instructions"]
        row = f"{key:<34.34} {c['bytecodes'] / n:>9.1f} {c['calls'] / n:>6.2f}"
        row += "".join(f" {c['stages'][s] / n:>8.1f}" for s in stages)
        lines.append(row)
    return lines


def _minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def verdict(counts: Dict[str, dict], table: dict,
            python: str) -> Tuple[List[str], int]:
    """Gate ``counts`` (run under CPython ``python``) against ``table``:
    the report lines and the exit status."""
    recorded = table["python"]
    if _minor(recorded) != _minor(python):
        return [f"FAIL: the table was recorded under CPython {recorded} "
                f"and this is {python}; counts differ between minor "
                f"versions, so run the gate on {_minor(recorded)} or "
                f"re-record with --write"], 1
    lines: List[str] = []
    status = 0
    lower = False
    if sorted(counts) != sorted(table["configs"]):
        lines.append("FAIL: the table's configurations "
                     f"{sorted(table['configs'])} are not this tool's "
                     f"{sorted(counts)}: re-record with --write")
        status = 1
    for key, c in counts.items():
        base = table["configs"].get(key)
        if base is None:
            continue
        was = base["bytecodes"] / base["instructions"]
        now = c["bytecodes"] / c["instructions"]
        change = now / was - 1
        if change > TOLERANCE:
            status = 1
            lines.append(f"FAIL {key}: {was:.1f} -> {now:.1f} bytecodes "
                         f"per instruction ({change:+.1%}, more than "
                         f"{TOLERANCE:.0%} above the table)")
        elif change < 0:
            lower = True
            lines.append(f"lower {key}: {was:.1f} -> {now:.1f} "
                         f"({change:+.1%})")
        elif change > 0:
            lines.append(f"ok {key}: {was:.1f} -> {now:.1f} "
                         f"({change:+.1%}, within {TOLERANCE:.0%})")
    if lower and not status:
        lines.append("counts fell below the table: re-record it with "
                     "`python3 tools/opcount.py --write` and say so in "
                     "CHANGES.md")
    if not status and not lines:
        lines.append("every count matches the table")
    return lines, status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Bytecodes and Python calls per simulated and per "
                    "synthesised instruction; "
                    "fails when a count rises more than "
                    f"{TOLERANCE:.0%} above {TABLE.relative_to(ROOT)}.")
    parser.add_argument("--write", action="store_true",
                        help="record the counts as the new table")
    opts = parser.parse_args(argv)
    if sys.version_info < (3, 11):
        print("opcount needs CPython 3.11 or later (co_qualname)",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    python = platform.python_version()
    table = None
    if not opts.write:
        table = json.loads(TABLE.read_text())
        if _minor(table["python"]) != _minor(python):
            lines, status = verdict({}, table, python)
            print("\n".join(lines))
            return status
    counts = {}
    for key in configs() + [SYNTH_KEY]:
        start = time.perf_counter()
        counts[key], _ = count(key)
        print(f"counted {key} in {time.perf_counter() - start:.1f} s",
              file=sys.stderr)
    print("\n".join(render(counts)))
    if opts.write:
        TABLE.write_text(json.dumps({"python": python, "configs": counts},
                                    indent=1) + "\n")
        print(f"wrote {TABLE.relative_to(ROOT)} (CPython {python})")
        return 0
    lines, status = verdict(counts, table, python)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
