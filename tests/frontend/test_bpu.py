"""Branch prediction unit (combined) tests.

Each branch is given as the ``(kind, pc, size, taken, target)`` field
values of one trace row, the arguments of
:meth:`BranchPredictionUnit.process_raw`.
"""

from repro.frontend.bpu import BranchPredictionUnit, Resteer
from repro.trace.record import InstrKind


def branch(pc, kind, *, taken=False, target=0):
    return (kind, pc, 4, taken, target)


def cond(pc, taken, target=0x9000):
    return branch(pc, InstrKind.BR_COND, taken=taken, target=target)


class TestConditional:
    def test_learned_branch_no_resteer(self):
        bpu = BranchPredictionUnit()
        for _ in range(60):
            bpu.process_raw(*cond(0x1000, True))
        assert bpu.process_raw(*cond(0x1000, True)) == Resteer.NONE

    def test_wrong_direction_is_execute_resteer(self):
        bpu = BranchPredictionUnit()
        for _ in range(60):
            bpu.process_raw(*cond(0x1000, True))
        assert bpu.process_raw(*cond(0x1000, False)) == Resteer.EXECUTE

    def test_taken_with_cold_btb_is_decode_resteer(self):
        bpu = BranchPredictionUnit()
        # Warm the direction predictor on other PCs so this branch
        # predicts taken on first sight.
        for pc in range(0x2000, 0x2100, 4):
            for _ in range(8):
                bpu.process_raw(*cond(pc, True))
        result = bpu.process_raw(*cond(0x8000, True))
        assert result in (Resteer.DECODE, Resteer.EXECUTE)

    def test_not_taken_needs_no_btb(self):
        bpu = BranchPredictionUnit()
        for _ in range(60):
            bpu.process_raw(*cond(0x1000, False))
        assert bpu.process_raw(*cond(0x1000, False)) == Resteer.NONE


class TestUnconditional:
    def test_jump_first_sight_decode_resteer(self):
        bpu = BranchPredictionUnit()
        jump = branch(0x100, InstrKind.JUMP, taken=True, target=0x500)
        assert bpu.process_raw(*jump) == Resteer.DECODE
        assert bpu.process_raw(*jump) == Resteer.NONE

    def test_call_pushes_ras(self):
        bpu = BranchPredictionUnit()
        call = branch(0x100, InstrKind.CALL, taken=True, target=0x500)
        bpu.process_raw(*call)
        ret = branch(0x600, InstrKind.RET, taken=True, target=0x104)
        assert bpu.process_raw(*ret) == Resteer.NONE

    def test_wrong_return_address_resteers(self):
        bpu = BranchPredictionUnit()
        call = branch(0x100, InstrKind.CALL, taken=True, target=0x500)
        bpu.process_raw(*call)
        ret = branch(0x600, InstrKind.RET, taken=True, target=0xBAD0)
        assert bpu.process_raw(*ret) == Resteer.EXECUTE

    def test_empty_ras_return_resteers(self):
        bpu = BranchPredictionUnit()
        ret = branch(0x600, InstrKind.RET, taken=True, target=0x104)
        assert bpu.process_raw(*ret) == Resteer.EXECUTE


class TestIndirect:
    def test_stable_indirect_learned(self):
        bpu = BranchPredictionUnit()
        ind = branch(0x100, InstrKind.BR_IND, taken=True, target=0x700)
        assert bpu.process_raw(*ind) == Resteer.EXECUTE   # cold BTB
        assert bpu.process_raw(*ind) == Resteer.NONE

    def test_changing_target_resteers(self):
        bpu = BranchPredictionUnit()
        a = branch(0x100, InstrKind.BR_IND, taken=True, target=0x700)
        b = branch(0x100, InstrKind.BR_IND, taken=True, target=0x900)
        bpu.process_raw(*a)
        bpu.process_raw(*a)
        assert bpu.process_raw(*b) == Resteer.EXECUTE
        assert bpu.process_raw(*b) == Resteer.NONE

    def test_indirect_call_pushes_ras(self):
        bpu = BranchPredictionUnit()
        icall = branch(0x100, InstrKind.CALL_IND, taken=True, target=0x700)
        bpu.process_raw(*icall)
        ret = branch(0x800, InstrKind.RET, taken=True, target=0x104)
        assert bpu.process_raw(*ret) == Resteer.NONE

    def test_non_branch_is_none(self):
        bpu = BranchPredictionUnit()
        alu = branch(0x100, InstrKind.ALU)
        assert bpu.process_raw(*alu) == Resteer.NONE
