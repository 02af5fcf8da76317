"""Resteer timing behaviour with hand-built traces."""

import pytest

from repro.cpu.machine import Machine, build_icache
from repro.trace.arrays import ArrayTrace
from repro.trace.record import Instruction, InstrKind


def loop_with_random_branch(iterations, body=64, pc=0x1000):
    """A resident loop whose final branch alternates direction — the
    perceptron learns the alternation, but a data-random branch would
    not. We use a pattern too long to learn: direction from a PRNG."""
    import random
    rng = random.Random(9)
    out = []
    for _ in range(iterations):
        p = pc
        for _ in range(body - 2):
            out.append(Instruction(p, 4, InstrKind.ALU, dst=1))
            p += 4
        # A conditional branch whose direction is random: if taken it
        # skips one instruction.
        taken = rng.random() < 0.5
        out.append(Instruction(p, 4, InstrKind.BR_COND, taken=taken,
                               target=p + 8))
        if not taken:
            out.append(Instruction(p + 4, 4, InstrKind.ALU, dst=2))
        q = p + 8
        out.append(Instruction(q, 4, InstrKind.JUMP, taken=True, target=pc))
    return ArrayTrace.from_instructions(out)


class TestMispredictStalls:
    def test_random_branch_costs_mispredict_stalls(self):
        trace = loop_with_random_branch(120)
        result = Machine(trace, build_icache("conv32")).run(2000, 5000)
        assert result.frontend.mispredict_stall_cycles > 0
        # The loop is cache-resident: no i-cache stalls after warm-up.
        assert result.frontend.fetch_stall_cycles < 100

    def test_mispredict_stalls_hurt_ipc(self):
        noisy = loop_with_random_branch(120)
        result_noisy = Machine(noisy, build_icache("conv32")).run(2000, 5000)

        # Same structure with a always-taken (learnable) branch.
        import random
        rng = random.Random(9)
        clean = []
        pc = 0x1000
        for _ in range(120):
            p = pc
            for _ in range(62):
                clean.append(Instruction(p, 4, InstrKind.ALU, dst=1))
                p += 4
            clean.append(Instruction(p, 4, InstrKind.BR_COND, taken=True,
                                     target=p + 8))
            clean.append(Instruction(p + 8, 4, InstrKind.JUMP, taken=True,
                                     target=pc))
        result_clean = Machine(ArrayTrace.from_instructions(clean),
                               build_icache("conv32")).run(2000, 5000)
        assert result_clean.ipc > result_noisy.ipc
        assert result_clean.frontend.mispredict_stall_cycles \
            < result_noisy.frontend.mispredict_stall_cycles


class TestDecodeResteer:
    def test_first_sight_jumps_cost_decode_resteers(self):
        # A long chain of never-before-seen direct jumps: every one is a
        # BTB miss -> decode resteer.
        trace = []
        pc = 0x10000
        for _ in range(500):
            target = pc + 128
            trace.append(Instruction(pc, 4, InstrKind.JUMP, taken=True,
                                     target=target))
            pc = target
        machine = Machine(ArrayTrace.from_instructions(trace),
                          build_icache("conv192"))
        result = machine.run(100, 350)
        assert result.frontend.btb_resteers > 0
