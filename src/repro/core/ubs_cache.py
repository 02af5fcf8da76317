"""The Uneven Block Size (UBS) instruction cache (Section IV).

A set-associative L1-I whose ways hold different block sizes (Table II:
4..64 bytes). Incoming 64-byte blocks first enter the usefulness
predictor; on eviction from the predictor, the accessed byte runs become
sub-blocks installed into ways chosen by size fit, using the modified LRU
that only considers the four smallest fitting ways (Section IV-F).

Faithfully modelled behaviours:

* tag + ``start_offset`` containment lookup with partial-miss taxonomy —
  missing sub-block / overrun / underrun (Section IV-E, Figs. 5 and 6);
* duplication avoidance: on a partial miss the resident sub-blocks are
  invalidated and their bytes marked useful in the (incoming) predictor
  bit-vector (Section IV-G);
* trailing/leading fill: a way larger than its sub-block is topped up with
  the neighbouring bytes (Section IV-F). ``start_offset`` is clamped to
  ``64 - way_size`` so a sub-block always fits entirely inside its way —
  this is what makes the paper's start-offset encodings (Table III)
  sufficient.

One deliberate simplification: when two accessed runs of the same block
are installed in one batch and the fill bytes of the first span partially
overlap the second run, we keep both ways rather than re-splitting; the
useful (accessed) bytes themselves are always disjoint.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..memory.icache import InstructionCacheBase, MissKind
from ..memory.replacement import LRUPolicy, overridden_hook
from ..params import TRANSFER_BLOCK, UBSParams
from ..telemetry.events import PREDICTOR
from .predictor import PredictorConfig, UsefulnessPredictor
from .subblock import extract_runs, mask_of_run

_HIT = MissKind.HIT
_FULL_MISS = MissKind.FULL_MISS


class UBSICache(InstructionCacheBase):
    """Uneven Block Size L1 instruction cache."""

    __slots__ = ("params", "way_sizes", "n_ways", "sets", "_index_mask",
                 "granularity", "predictor", "policy", "_candidate_window",
                 "_tags", "_start", "_span_end", "_useful", "_reused",
                 "_pending_bits", "_max_way", "_fit", "_stored_bytes",
                 "_used_bits",
                 "_predictor_mark", "_predictor_contains", "_policy_on_hit",
                 "_policy_on_evict",
                 "partial_missing", "partial_overrun", "partial_underrun",
                 "way_evictions", "subblocks_installed", "blocks_discarded")

    def __init__(self, params: Optional[UBSParams] = None,
                 predictor_config: Optional[PredictorConfig] = None) -> None:
        params = params or UBSParams()
        super().__init__(params.latency, params.mshr_entries)
        self.params = params
        self.way_sizes = params.way_sizes
        self.n_ways = len(params.way_sizes)
        self.sets = params.sets
        self._index_mask = self.sets - 1
        self.granularity = params.instruction_granularity
        if predictor_config is None:
            predictor_config = PredictorConfig(
                sets=params.predictor_sets,
                ways=params.predictor_ways,
                policy=params.predictor_policy,
            )
        self.predictor = UsefulnessPredictor(predictor_config)
        if params.replacement == "ghrp":
            from ..memory.ghrp import GHRPPolicy
            self.policy = GHRPPolicy(self.sets, self.n_ways)
        else:
            self.policy = LRUPolicy(self.sets, self.n_ways)
        self._candidate_window = params.candidate_window
        # Prebound hot-path callables (one dict lookup saved per access).
        self._predictor_mark = self.predictor.mark
        self._predictor_contains = self.predictor.contains
        self._policy_on_hit = self.policy.on_hit
        # None for LRU (no-op default); GHRP trains on evictions.
        self._policy_on_evict = overridden_hook(self.policy, "on_evict")

        n, w = self.sets, self.n_ways
        self._tags: List[List[Optional[int]]] = [[None] * w for _ in range(n)]
        self._start: List[List[int]] = [[0] * w for _ in range(n)]
        self._span_end: List[List[int]] = [[0] * w for _ in range(n)]
        self._useful: List[List[int]] = [[0] * w for _ in range(n)]
        self._reused: List[List[bool]] = [[False] * w for _ in range(n)]
        # Incremental storage accounting mirrored on every install/evict/
        # mark so ``storage_snapshot`` is O(1) per efficiency sample.
        self._stored_bytes = 0
        self._used_bits = 0

        # Useful bits carried from invalidated sub-blocks of blocks whose
        # refetch is still outstanding (Section IV-G).
        self._pending_bits: Dict[int, int] = {}

        # Smallest way whose capacity fits a sub-block of each length.
        # Runs longer than the largest way are split at install time.
        self._max_way = self.way_sizes[-1]
        fit = [0] * (TRANSFER_BLOCK + 1)
        way = 0
        for length in range(1, self._max_way + 1):
            while self.way_sizes[way] < length:
                way += 1
            fit[length] = way
        for length in range(self._max_way + 1, TRANSFER_BLOCK + 1):
            fit[length] = self.n_ways - 1
        self._fit = fit

        self.partial_missing = 0
        self.partial_overrun = 0
        self.partial_underrun = 0
        self.way_evictions = 0
        self.subblocks_installed = 0
        self.blocks_discarded = 0     # predictor victims with no used bytes

    # -- lookup -----------------------------------------------------------------

    def lookup(self, addr: int, nbytes: int) -> MissKind:
        block = addr >> 6
        off = addr & (TRANSFER_BLOCK - 1)
        end_off = off + nbytes
        if end_off > TRANSFER_BLOCK:
            raise SimulationError(
                f"fetch range {addr:#x}+{nbytes} crosses a block boundary"
            )

        # The predictor is looked up in parallel with the ways; a block
        # is never in both (Section IV-E), so the predictor is asked only
        # when no way holds the block.
        set_idx = block & self._index_mask
        if block not in self._tags[set_idx]:
            if self._predictor_mark(block, off, nbytes):
                self.hits += 1
                return _HIT
            self.misses += 1
            return _FULL_MISS
        way = self._holding_way(set_idx, block, off, end_off)
        if way < 0:
            return self._partial_miss(block, set_idx, off, end_off)
        self.hits += 1
        self._reused[set_idx][way] = True
        useful = self._useful[set_idx]
        old = useful[way]
        new = old | ((1 << nbytes) - 1) << off
        if new != old:
            useful[way] = new
            self._used_bits += (new ^ old).bit_count()
        self._policy_on_hit(set_idx, way, addr)
        return _HIT

    def _holding_way(self, set_idx: int, block: int, off: int,
                     end_off: int) -> int:
        """The first way holding bytes ``off``..``end_off`` of ``block``,
        which has at least one way in the set; -1 if none holds them.

        Overlapping spans are possible, so way order is the tie-break.
        The walk jumps from match to match in C.
        """
        tags = self._tags[set_idx]
        starts = self._start[set_idx]
        spans = self._span_end[set_idx]
        way = tags.index(block)
        while starts[way] > off or end_off > spans[way]:
            later = tags[way + 1:]
            if block not in later:
                return -1
            way += 1 + later.index(block)
        return way

    def _partial_miss(self, block: int, set_idx: int, off: int,
                      end_off: int) -> MissKind:
        """Classify a lookup whose block has sub-blocks resident, none of
        which holds the whole range (Figs. 5 and 6)."""
        self.misses += 1
        match_ways = [way for way, tag in enumerate(self._tags[set_idx])
                      if tag == block]
        starts = self._start[set_idx]
        spans = self._span_end[set_idx]
        last = end_off - 1
        start_present = end_present = False
        for w in match_ways:
            if starts[w] <= off < spans[w]:
                start_present = True
            if starts[w] <= last < spans[w]:
                end_present = True
        if start_present:
            kind = MissKind.OVERRUN
            if self.recording:
                self.partial_overrun += 1
        elif end_present:
            kind = MissKind.UNDERRUN
            if self.recording:
                self.partial_underrun += 1
        else:
            kind = MissKind.MISSING_SUBBLOCK
            if self.recording:
                self.partial_missing += 1

        # Duplication avoidance (Section IV-G): invalidate the resident
        # sub-blocks now and remember their useful bytes for the incoming
        # copy of the block.
        carried = 0
        for way in match_ways:
            carried |= self._useful[set_idx][way]
            self._evict_way(set_idx, way)
        if carried:
            self._pending_bits[block] = self._pending_bits.get(block, 0) | carried

        return kind

    # -- fills ------------------------------------------------------------------

    def fill(self, block_addr: int, prefetch: bool = False) -> None:
        block = block_addr >> 6
        pending = self._pending_bits.pop(block, 0)
        if self.predictor.contains(block):
            if pending:
                self.predictor.mark_bits(block, pending)
            return
        if self._tel_enabled:
            self._telemetry.emit(PREDICTOR, self.now, op="insert",
                                 block=block_addr)
        # A prefetch may land while sub-blocks of the block are resident
        # (the prefetch was issued for a missing range). Treat it like the
        # partial-miss flow: absorb and invalidate the resident sub-blocks.
        set_idx = block & self._index_mask
        tags = self._tags[set_idx]
        if block in tags:
            for way in range(self.n_ways):
                if tags[way] == block:
                    pending |= self._useful[set_idx][way]
                    self._evict_way(set_idx, way)

        victim = self.predictor.insert(block, pending)
        if victim is not None:
            self._install_victim(victim[0], victim[1])

    def _evict_way(self, set_idx: int, way: int) -> None:
        if self._tags[set_idx][way] is None:
            return
        self.way_evictions += 1
        on_evict = self._policy_on_evict
        if on_evict is not None:
            on_evict(set_idx, way, self._tags[set_idx][way] << 6,
                     self._reused[set_idx][way])
        self._tags[set_idx][way] = None
        self._stored_bytes -= self.way_sizes[way]
        self._used_bits -= self._useful[set_idx][way].bit_count()
        self._useful[set_idx][way] = 0
        self._reused[set_idx][way] = False

    def _install_victim(self, block: int, mask: int) -> None:
        """Move a predictor victim's accessed runs into the ways."""
        if mask == 0:
            self.blocks_discarded += 1
            if self._tel_enabled:
                self._telemetry.emit(PREDICTOR, self.now, op="discard",
                                     block=block << 6)
            return
        set_idx = block & self._index_mask
        granularity = self.granularity
        installed: List[Tuple[int, int, int]] = []  # (start, span_end, way)
        runs = extract_runs(mask, granularity,
                            merge_gap=self.params.run_merge_gap)
        if self._max_way < TRANSFER_BLOCK:
            # Configurations without a 64-byte way split oversized runs
            # into largest-way-sized pieces.
            split = []
            for start, length in runs:
                while length > self._max_way:
                    split.append((start, self._max_way))
                    start += self._max_way
                    length -= self._max_way
                split.append((start, length))
            runs = split
        for run_start, run_len in runs:
            run_mask = mask_of_run(run_start, run_len)
            absorbed = False
            for ws, wend, way in installed:
                if ws <= run_start and run_start + run_len <= wend:
                    useful = self._useful[set_idx]
                    old = useful[way]
                    new = old | run_mask
                    useful[way] = new
                    self._used_bits += new.bit_count() - old.bit_count()
                    absorbed = True
                    break
            if absorbed:
                continue
            first_fit = self._fit[run_len]
            candidates = range(
                first_fit,
                min(first_fit + self._candidate_window, self.n_ways),
            )
            tags = self._tags[set_idx]
            invalid = [w for w in candidates if tags[w] is None]
            if invalid:
                way = invalid[0]
            else:
                way = self.policy.victim(set_idx, candidates)
            self._evict_way(set_idx, way)
            size = self.way_sizes[way]
            start = min(run_start, TRANSFER_BLOCK - size)
            start -= start % granularity
            span_end = start + size
            self._tags[set_idx][way] = block
            self._start[set_idx][way] = start
            self._span_end[set_idx][way] = span_end
            self._useful[set_idx][way] = run_mask
            self._stored_bytes += size
            self._used_bits += run_mask.bit_count()
            self._reused[set_idx][way] = False
            self.policy.on_fill(set_idx, way, block << 6)
            self.subblocks_installed += 1
            if self._tel_enabled:
                self._telemetry.emit(PREDICTOR, self.now, op="install",
                                     block=block << 6, run_start=run_start,
                                     run_len=run_len, way_size=size)
            installed.append((start, span_end, way))

    # -- probes / snapshots -------------------------------------------------------

    def probe_range(self, addr: int, nbytes: int) -> bool:
        block = addr >> 6
        set_idx = block & self._index_mask
        if block not in self._tags[set_idx]:
            return self._predictor_contains(block)
        off = addr & (TRANSFER_BLOCK - 1)
        return self._holding_way(set_idx, block, off, off + nbytes) >= 0

    def storage_snapshot(self) -> Tuple[int, int]:
        used, stored = self.predictor.storage_snapshot()
        return used + self._used_bits, stored + self._stored_bytes

    def block_count(self) -> int:
        resident = sum(
            1 for tags in self._tags for t in tags if t is not None
        )
        return resident + self.predictor.block_count()

    @property
    def partial_misses(self) -> int:
        return (self.partial_missing + self.partial_overrun
                + self.partial_underrun)

    def metrics(self, prefix: str = "l1i") -> Dict[str, int]:
        out = super().metrics(prefix)
        for name in ("partial_missing", "partial_overrun",
                     "partial_underrun", "way_evictions",
                     "subblocks_installed", "blocks_discarded"):
            out[f"{prefix}.{name}"] = getattr(self, name)
        out.update(self.predictor.metrics(f"{prefix}.predictor"))
        return out

    def reset_stats(self) -> None:
        super().reset_stats()
        self.partial_missing = 0
        self.partial_overrun = 0
        self.partial_underrun = 0
        self.way_evictions = 0
        self.subblocks_installed = 0
        self.blocks_discarded = 0
        self.predictor.hits = 0
        self.predictor.evictions = 0
