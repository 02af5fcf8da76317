"""Differential test: UBSICache vs a transparent oracle model.

The oracle mirrors the UBS contents with naive data structures and no
optimisation tricks: a dict of predictor entries and a list of way
records per set. After every operation the two models' *observable*
state (which blocks are resident where, stored spans, hit/miss outcomes)
must agree. Divergence localises bugs in the optimised implementation.
"""

import random

import pytest

from repro.core.subblock import extract_runs, mask_of_run
from repro.core.ubs_cache import UBSICache
from repro.memory.icache import MissKind
from repro.params import UBSParams


class OracleUBS:
    """Straight-line reimplementation of the UBS semantics."""

    def __init__(self, params: UBSParams) -> None:
        self.p = params
        self.sets = params.sets
        self.ways = list(params.way_sizes)
        # per set: list of dicts or None
        self.lines = [[None] * len(self.ways) for _ in range(self.sets)]
        self.pred = {}            # block -> mask (bounded by predictor)
        self.pred_order = []      # LRU order of predictor blocks per set
        self.pending = {}
        self.lru = [[0] * len(self.ways) for _ in range(self.sets)]
        self.clock = 0

    # -- helpers ------------------------------------------------------------

    def _pset(self, block):
        return block % self.p.predictor_sets

    def _set(self, block):
        return block % self.sets

    def lookup(self, addr, nbytes):
        block = addr >> 6
        off = addr & 63
        end = off + nbytes
        if block in self.pred:
            self.pred[block] |= mask_of_run(off, nbytes)
            return "hit"
        s = self._set(block)
        matches = [w for w, line in enumerate(self.lines[s])
                   if line and line["block"] == block]
        for w in matches:
            line = self.lines[s][w]
            if line["start"] <= off and end <= line["end"]:
                line["useful"] |= mask_of_run(off, nbytes)
                self.clock += 1
                self.lru[s][w] = self.clock
                return "hit"
        if not matches:
            return "full"
        # partial: invalidate + carry
        carried = 0
        for w in matches:
            carried |= self.lines[s][w]["useful"]
            self.lines[s][w] = None
        self.pending[block] = self.pending.get(block, 0) | carried
        return "partial"

    def fill(self, block_addr):
        block = block_addr >> 6
        pending = self.pending.pop(block, 0)
        if block in self.pred:
            self.pred[block] |= pending
            return
        s = self._set(block)
        for w, line in enumerate(self.lines[s]):
            if line and line["block"] == block:
                pending |= line["useful"]
                self.lines[s][w] = None
        # insert into DM predictor: evict the conflicting entry
        pset = self._pset(block)
        victim = next((b for b in self.pred if self._pset(b) == pset), None)
        if victim is not None:
            self._install(victim, self.pred.pop(victim))
        self.pred[block] = pending

    def _install(self, block, mask):
        if mask == 0:
            return
        s = self._set(block)
        runs = extract_runs(mask, self.p.instruction_granularity,
                            merge_gap=self.p.run_merge_gap)
        installed = []
        for start, length in runs:
            run_mask = mask_of_run(start, length)
            hit_existing = False
            for (ws, we, w) in installed:
                if ws <= start and start + length <= we:
                    self.lines[s][w]["useful"] |= run_mask
                    hit_existing = True
                    break
            if hit_existing:
                continue
            first = next(i for i, size in enumerate(self.ways)
                         if size >= length)
            cands = list(range(first, min(first + self.p.candidate_window,
                                          len(self.ways))))
            invalid = [w for w in cands if self.lines[s][w] is None]
            if invalid:
                w = invalid[0]
            else:
                w = min(cands, key=lambda i: self.lru[s][i])
            size = self.ways[w]
            anchor = min(start, 64 - size)
            anchor -= anchor % self.p.instruction_granularity
            self.lines[s][w] = {
                "block": block, "start": anchor, "end": anchor + size,
                "useful": run_mask,
            }
            self.clock += 1
            self.lru[s][w] = self.clock
            installed.append((anchor, anchor + size, w))

    def observable(self):
        """Resident (block, start, end) triples per set + predictor set."""
        ways = set()
        for s in range(self.sets):
            for line in self.lines[s]:
                if line:
                    ways.add((line["block"], line["start"], line["end"]))
        return ways, set(self.pred)


def observable_real(ubs: UBSICache):
    ways = set()
    for s in range(ubs.sets):
        for w in range(ubs.n_ways):
            tag = ubs._tags[s][w]
            if tag is not None:
                ways.add((tag, ubs._start[s][w], ubs._span_end[s][w]))
    pred = {b for b, _m in ubs.predictor.entries()}
    return ways, pred


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_differential_against_oracle(seed):
    params = UBSParams(sets=4, predictor_sets=4)
    real = UBSICache(params)
    oracle = OracleUBS(params)
    rng = random.Random(seed)

    for step in range(600):
        block = rng.randrange(32)
        off = 4 * rng.randrange(16)
        nbytes = min(rng.choice((4, 8, 16)), 64 - off)
        addr = (block << 6) + off

        res = real.lookup(addr, nbytes)
        expected = oracle.lookup(addr, nbytes)
        if expected == "hit":
            assert res is MissKind.HIT, (step, block, off, nbytes)
        elif expected == "full":
            assert res == MissKind.FULL_MISS, (step, block, off, nbytes)
        else:
            assert res in (MissKind.MISSING_SUBBLOCK, MissKind.OVERRUN,
                                MissKind.UNDERRUN), (step, block, off)
        if res is not MissKind.HIT:
            real.fill(block << 6)
            oracle.fill(block << 6)

        assert observable_real(real) == oracle.observable(), \
            f"divergence at step {step}"
