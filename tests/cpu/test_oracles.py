"""Machine-level oracles: hand-built traces whose counts follow from the
parameters.

Each trace is written out as :class:`Instruction` records and packed with
:meth:`ArrayTrace.from_instructions`. Prefetching is off, so every miss is
a demand miss and its stall is the latency of the level that serves it.
Every L1-I model (conv32, small16, distill32, ubs) must give the same
exact counts where the answer does not depend on its organisation.

How the measured window is bounded (``Core._simulate``): it opens when
the instruction that reaches the warm-up count is delivered — with
``warmup=0``, the first instruction — and ``cycles`` runs from that
instruction's commit. Nothing before the first delivery can be charged to
the window, because there is no commit yet to measure cycles from; a
stall before it would lie outside the measured span, and counting it
would let the stall cycles exceed ``cycles``. So the first block's miss
in a cold run is warm-up, not measurement. The same rule puts the resteer
of the boundary instruction inside the window and that of the final
instruction outside it: the window spans what happens after the boundary
instruction is delivered, up to the last delivery.
"""

import pytest

from repro.cpu.machine import Machine, build_icache
from repro.params import CoreParams, MachineParams
from repro.trace.arrays import ArrayTrace
from repro.trace.record import Instruction, InstrKind

MODELS = ["conv32", "small16", "distill32", "ubs"]
PARAMS = MachineParams(core=CoreParams(prefetcher="none"))
BASE = 0x10_0000           # 8 KiB-aligned: one DRAM row holds 128 blocks
INSTRS_PER_BLOCK = 16      # 4-byte instructions in a 64-byte block
#: A cold block misses L2 and L3 and reads the open DRAM row.
COLD_MISS = (PARAMS.l2.latency + PARAMS.l3.latency + PARAMS.dram.t_cas
             + PARAMS.dram.bus_cycles)


def run(trace, config, warmup, measure):
    return Machine(trace, build_icache(config), params=PARAMS).run(
        warmup, measure, sample_efficiency=False)


def straight_line(n_blocks):
    """``n_blocks`` cold 64-byte blocks of straight-line ALU code."""
    return ArrayTrace.from_instructions(
        Instruction(BASE + 4 * i, 4, InstrKind.ALU)
        for i in range(INSTRS_PER_BLOCK * n_blocks))


def one_set_cycle(n_blocks, passes, stride=4096):
    """``passes`` trips around ``n_blocks`` blocks ``stride`` bytes apart,
    each entered at its first byte and left by a direct jump to the next.

    Block ``b`` jumps from offset ``60 - 4 * b``, so the jumps sit in
    different BTB sets even though the blocks share one L1-I set; only
    the L1-I sees the conflict. Returns the trace and the instructions
    per pass."""
    records = []
    for _ in range(passes):
        for b in range(n_blocks):
            pc = BASE + b * stride
            jump_at = 60 - 4 * b
            records += [Instruction(pc + off, 4, InstrKind.ALU)
                        for off in range(0, jump_at, 4)]
            records.append(Instruction(
                pc + jump_at, 4, InstrKind.JUMP, taken=True,
                target=BASE + (b + 1) % n_blocks * stride))
    per_pass = len(records) // passes
    return ArrayTrace.from_instructions(records), per_pass


def jump_chain(n):
    """``n`` direct jumps, each to a never-seen PC two blocks further on."""
    return ArrayTrace.from_instructions(
        Instruction(BASE + 128 * i, 4, InstrKind.JUMP, taken=True,
                    target=BASE + 128 * (i + 1))
        for i in range(n))


@pytest.mark.parametrize("config", MODELS)
def test_cold_straight_line_blocks(config):
    n_blocks = 40
    trace = straight_line(n_blocks)
    result = run(trace, config, 0, len(trace))
    fe = result.frontend
    # Every block but the first misses inside the window (see the module
    # docstring).
    assert COLD_MISS == 96
    assert fe.l1i_misses == n_blocks - 1 == 39
    # A miss stalls fetch from its own cycle until the fill lands.
    assert fe.fetch_stall_cycles == (n_blocks - 1) * COLD_MISS == 3744
    assert fe.btb_resteers == fe.branch_mispredicts == 0
    assert fe.mispredict_stall_cycles == 0
    # Between the first and the last delivery: one cycle per 16-byte
    # fetch chunk and nothing else but the miss stalls. The back end
    # never stalls independent ALU ops, so commits keep the same spacing.
    chunks = n_blocks * 64 // PARAMS.core.fetch_bytes
    assert result.cycles == chunks - 1 + fe.fetch_stall_cycles == 3903


def test_lru_set_thrash_misses_every_pass():
    ways = build_icache("conv32").params.ways
    passes = 5
    trace, per_pass = one_set_cycle(ways + 1, passes + 2)
    # Two warm-up passes: the last block's jump is first seen as the
    # first pass's final instruction, so with one warm-up pass it would
    # be the boundary instruction and its resteer would count (see the
    # module docstring).
    fe = run(trace, "conv32", 2 * per_pass, passes * per_pass).frontend
    # W+1 blocks through one W-way LRU set: each access evicts the block
    # needed next, so every block misses on every pass and refills from
    # the L2, which holds all of them after the warm-up.
    assert fe.l1i_misses == (ways + 1) * passes == 45
    assert fe.fetch_stall_cycles == fe.l1i_misses * PARAMS.l2.latency
    assert fe.btb_resteers == fe.branch_mispredicts == 0


def test_same_blocks_hit_in_conv64():
    ways = build_icache("conv32").params.ways
    passes = 5
    trace, per_pass = one_set_cycle(ways + 1, passes + 2)
    fe = run(trace, "conv64", 2 * per_pass, passes * per_pass).frontend
    assert fe.l1i_misses == 0
    assert fe.l1i_hits > 0
    assert fe.fetch_stall_cycles == 0


@pytest.mark.parametrize("config", MODELS)
def test_first_sight_jumps_resteer_once_each(config):
    warmup, k = 20, 40
    result = run(jump_chain(warmup + k), config, warmup, k)
    fe = result.frontend
    # Jumps warmup .. warmup+k-1 resteer inside the window; the last
    # one's resteer would follow the final delivery.
    assert fe.btb_resteers == k
    assert fe.branch_mispredicts == 0
    # Fetch resumes btb_resteer_penalty cycles after the jump's delivery
    # cycle, so each resteer idles fetch for penalty - 1 cycles.
    penalty = PARAMS.core.btb_resteer_penalty
    assert fe.mispredict_stall_cycles == k * (penalty - 1) == 160
    # Each jump lands in a cold block: the resteer, then a cold miss,
    # then one delivery cycle.
    assert fe.l1i_misses == k
    assert fe.fetch_stall_cycles == k * COLD_MISS
    assert result.cycles == k * (penalty + COLD_MISS) == 4040
