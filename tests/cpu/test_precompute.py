"""The precompute fingerprint (:func:`repro.cpu.precompute.precompute_fingerprint`)
names every precompute sidecar, so a builder change that moves an output
must move it. Each test changes one piece of builder behaviour the way a
later edit might, and checks that the fingerprint moves; a wrapper that
changes nothing must leave it as it was."""

from collections import Counter

import pytest

import repro.cpu.precompute as precompute_mod
import repro.frontend.ftq as ftq_mod
from repro.frontend.bpu import BranchPredictionUnit, Resteer
from repro.frontend.btb import BTB
from repro.frontend.ras import ReturnAddressStack
from repro.params import MachineParams
from repro.trace.record import InstrKind


@pytest.fixture
def fingerprint(monkeypatch):
    """A function that recomputes the fingerprint under the test's
    patches; the first call gives the unpatched one."""
    monkeypatch.setattr(precompute_mod, "_fingerprint", None)
    base = precompute_mod.precompute_fingerprint()

    def again():
        monkeypatch.setattr(precompute_mod, "_fingerprint", None)
        return precompute_mod.precompute_fingerprint()

    again.base = base
    return again


def test_probe_covers_every_kind_and_overflows_btb_and_ras():
    trace = precompute_mod.probe_trace()
    assert set(Counter(trace.kind)) == {int(kind) for kind in InstrKind}
    for params in (MachineParams(), precompute_mod.SMALL_POINT):
        bpu = BranchPredictionUnit(params.branch)
        ftq_mod.precompute_range_stream(trace, bpu)
        assert bpu.ras.overflows > 0
        branch_pcs = {pc for pc, kind in zip(trace.pc, trace.kind)
                      if kind in (InstrKind.JUMP, InstrKind.CALL,
                                  InstrKind.BR_COND, InstrKind.BR_IND,
                                  InstrKind.CALL_IND, InstrKind.RET)}
        sets = {}
        for pc in branch_pcs:
            sets.setdefault((pc >> 2) % bpu.btb.sets, set()).add(pc)
        assert max(map(len, sets.values())) > bpu.btb.ways
    assert len(branch_pcs) > precompute_mod.SMALL_POINT.branch.btb_entries


def test_no_op_wrapper_keeps_the_fingerprint(fingerprint, monkeypatch):
    real = BTB.update
    monkeypatch.setattr(BTB, "update",
                        lambda self, pc, target: real(self, pc, target))
    assert fingerprint() == fingerprint.base


def test_btb_replacement_moves_it(fingerprint, monkeypatch):
    """Evict the most recently used way instead of the least."""
    def update_mru(self, pc, target):
        tag = pc >> 2
        set_idx = tag & self._index_mask
        tags = self._tags[set_idx]
        if tag not in tags:
            stamps = self._stamp[set_idx]
            tags[tags.index(None) if None in tags
                 else stamps.index(max(stamps))] = tag
        way = tags.index(tag)
        self._targets[set_idx][way] = target
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    monkeypatch.setattr(BTB, "update", update_mru)
    assert fingerprint() != fingerprint.base


def test_ras_overflow_moves_it(fingerprint, monkeypatch):
    """Drop the newest return address on overflow, not the oldest."""
    def push_keep_oldest(self, return_addr):
        if len(self._stack) >= self.capacity:
            self.overflows += 1
            return
        self._stack.append(return_addr)

    monkeypatch.setattr(ReturnAddressStack, "push", push_keep_oldest)
    assert fingerprint() != fingerprint.base


@pytest.mark.parametrize("kind", [InstrKind.BR_IND, InstrKind.CALL_IND,
                                  InstrKind.JUMP])
def test_branch_kind_handling_moves_it(fingerprint, monkeypatch, kind):
    """Predict every ``kind`` branch right, without training."""
    real = BranchPredictionUnit.process_raw

    def process_raw(self, k, pc, size, taken, target):
        if k == kind:
            return Resteer.NONE
        return real(self, k, pc, size, taken, target)

    monkeypatch.setattr(BranchPredictionUnit, "process_raw", process_raw)
    assert fingerprint() != fingerprint.base


def test_segmenting_at_other_geometry_moves_it(fingerprint, monkeypatch):
    """A change to segment_stream seen only away from the default fetch
    geometry (16 bytes, 4 instructions)."""
    real = ftq_mod.segment_stream

    def segment_stream(trace, stream, fetch_bytes, fetch_width):
        if fetch_bytes != 16:
            fetch_width -= 1
        return real(trace, stream, fetch_bytes, fetch_width)

    monkeypatch.setattr(ftq_mod, "segment_stream", segment_stream)
    assert fingerprint() != fingerprint.base
