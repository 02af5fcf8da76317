"""Back-end scoreboard timing-model tests.

Instructions are delivered the way the machine delivers them: a small
columnar trace is bound with ``Backend.bind_trace`` and delivered in
order through ``Backend.accept``.
"""

from collections import Counter

from repro.cpu.backend import Backend
from repro.memory.hierarchy import MemoryHierarchy
from repro.params import CoreParams, MachineParams
from repro.trace.arrays import ArrayTrace
from repro.trace.record import Instruction, InstrKind


def make_backend(**core_overrides):
    params = CoreParams(**core_overrides)
    return Backend(params, MemoryHierarchy(MachineParams(core=params)))


def alu(pc=0, src1=-1, src2=-1, dst=-1):
    return Instruction(pc, 4, InstrKind.ALU, src1=src1, src2=src2, dst=dst)


def deliver(be, instrs, fetch_cycle=0):
    """Deliver ``instrs`` one at a time, all fetched at ``fetch_cycle``;
    returns each one's (complete_cycle, commit_cycle)."""
    trace = ArrayTrace.from_instructions(instrs)
    be.bind_trace(trace)
    return [be.accept(1, fetch_cycle) for _ in range(len(trace))]


class TestDependencies:
    def test_independent_instructions_overlap(self):
        be = make_backend()
        (c1, _), (c2, _) = deliver(be, [alu(dst=1), alu(pc=4, dst=2)])
        assert c1 == c2  # both execute as soon as dispatched

    def test_dependency_serialises(self):
        be = make_backend()
        (c1, _), (c2, _) = deliver(be, [alu(dst=1),
                                        alu(pc=4, src1=1, dst=2)])
        assert c2 == c1 + 1

    def test_long_latency_op(self):
        be = make_backend()
        fp = Instruction(0, 4, InstrKind.FP, dst=3)
        (c1, _), (c2, _) = deliver(be, [fp, alu(pc=4, src1=3)])
        assert c2 > c1  # the dependent waits for the FP latency

    def test_load_latency_through_dcache(self):
        be = make_backend()
        load = Instruction(0, 4, InstrKind.LOAD, mem_addr=0x8000, dst=1)
        (c_load, _), (c_alu, _) = deliver(be, [load, alu(pc=4)])
        # The load misses the cold L1-D and completes much later.
        assert c_load > c_alu + 10

    def test_store_does_not_block(self):
        be = make_backend()
        store = Instruction(0, 4, InstrKind.STORE, mem_addr=0x8000)
        ((c_store, _),) = deliver(be, [store])
        assert c_store <= be.params.decode_latency + 2


class TestCommit:
    def test_commit_is_in_order(self):
        be = make_backend()
        load = Instruction(0, 4, InstrKind.LOAD, mem_addr=0x9000, dst=1)
        (_, commit1), (_, commit2) = deliver(be, [load, alu(pc=4)])
        assert commit2 >= commit1  # younger cannot commit first

    def test_commit_width_limit(self):
        be = make_backend(commit_width=2)
        commits = [commit for _, commit in
                   deliver(be, [alu(pc=4 * i) for i in range(6)])]
        # At most two instructions share any commit cycle.
        assert max(Counter(commits).values()) <= 2


class TestROB:
    def test_rob_space_initially(self):
        be = make_backend(rob_entries=4)
        assert be.rob_has_space(0)

    def test_rob_fills_up(self):
        be = make_backend(rob_entries=4)
        # A load that takes very long keeps the ROB head occupied.
        load = Instruction(0, 4, InstrKind.LOAD, mem_addr=0xA000, dst=1)
        deliver(be, [load] + [alu(pc=4 + 4 * i, src1=1) for i in range(3)])
        assert not be.rob_has_space(0)
        assert be.rob_free_cycle() > 0
        assert be.rob_has_space(be.rob_free_cycle() + 1)

    def test_instruction_count(self):
        be = make_backend()
        deliver(be, [alu(pc=4 * i) for i in range(5)])
        assert be.instructions == 5

    def test_load_store_counters(self):
        be = make_backend()
        deliver(be, [Instruction(0, 4, InstrKind.LOAD, mem_addr=64),
                     Instruction(4, 4, InstrKind.STORE, mem_addr=64)])
        assert be.loads == 1 and be.stores == 1


class TestRangeDelivery:
    def test_range_matches_one_at_a_time(self):
        """Delivering a whole range in one call times every instruction
        exactly as delivering it one instruction per call."""
        instrs = [Instruction(0, 4, InstrKind.LOAD, mem_addr=0xB000, dst=1),
                  alu(pc=4, src1=1, dst=2),
                  Instruction(8, 4, InstrKind.STORE, mem_addr=0xB040,
                              src1=2),
                  Instruction(12, 4, InstrKind.FP, dst=3),
                  alu(pc=16, src1=3, src2=2)]
        one_by_one = make_backend(commit_width=2)
        last = deliver(one_by_one, instrs, fetch_cycle=5)[-1]
        whole = make_backend(commit_width=2)
        whole.bind_trace(ArrayTrace.from_instructions(instrs))
        assert whole.accept(len(instrs), 5) == last
        assert whole.instructions == one_by_one.instructions == 5
        assert (whole.loads, whole.stores) == (1, 1)


class TestPrivateL1D:
    """A one-thread core folds its L1-D outcomes into the op table."""

    @staticmethod
    def _memory_trace():
        # Loads and stores to blocks 4 KB apart, which share one L1-D
        # set: every other access goes to one of 5 hot blocks, the rest
        # sweep 40 blocks, so there are hits, misses and evictions.
        # Dependent ALU ops sit between them.
        instrs = []
        for i in range(600):
            block = i % 5 if i % 2 else 5 + (i * 7) % 40
            addr = block * 4096 + (i % 3) * 8
            kind = InstrKind.STORE if i % 4 == 3 else InstrKind.LOAD
            instrs.append(Instruction(8 * i, 4, kind, mem_addr=addr,
                                      src1=(i - 1) % 8, dst=i % 8))
            instrs.append(alu(pc=8 * i + 4, src1=i % 8, dst=(i + 1) % 8))
        return ArrayTrace.from_instructions(instrs)

    def test_private_l1d_times_like_the_live_l1d(self):
        """The folded table times every instruction, and drives the
        levels below the L1-D, exactly as the live L1-D does, without
        touching the hierarchy's L1-D."""
        trace = self._memory_trace()
        runs = {}
        for private in (False, True):
            be = make_backend(commit_width=2)
            be.bind_trace(trace, private_l1d=private)
            timings = [be.accept(n, 3 * k)
                       for k, n in enumerate([1, 5, 2, 64, 300] * 3)]
            runs[private] = (be, timings)
        (live, live_timings), (folded, folded_timings) = \
            runs[False], runs[True]
        assert folded_timings == live_timings
        l1d = live.hierarchy.l1d
        assert (folded.l1d_hits, folded.l1d_misses) == (l1d.hits, l1d.misses)
        assert l1d.misses > 0 and l1d.hits > 0
        for level in ("l2", "l3"):
            a = getattr(live.hierarchy, level)
            b = getattr(folded.hierarchy, level)
            assert (a.hits, a.misses) == (b.hits, b.misses)
        assert folded.hierarchy.dram.accesses == live.hierarchy.dram.accesses
        untouched = folded.hierarchy.l1d
        assert untouched.hits == untouched.misses == 0
        assert not any(untouched.blocks)
