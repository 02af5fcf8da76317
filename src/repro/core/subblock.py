"""Sub-block extraction from accessed-byte bit-vectors.

When a block leaves the usefulness predictor, its bit-vector of accessed
bytes is decomposed into maximal contiguous runs; each run becomes a
sub-block installed into one UBS way (Section IV-F).
"""

from __future__ import annotations

from typing import List, Tuple

from ..params import TRANSFER_BLOCK


def extract_runs(mask: int, granularity: int = 1,
                 block_size: int = TRANSFER_BLOCK,
                 merge_gap: int = 0) -> List[Tuple[int, int]]:
    """Maximal contiguous accessed runs as ``(start_offset, length)`` pairs.

    ``mask`` has bit *i* set when byte *i* of the block was accessed. Runs
    are snapped outward to ``granularity`` (ISAs with fixed instruction
    size track whole instructions, Section IV-B), so returned offsets and
    lengths are multiples of ``granularity``. Runs separated by a gap of
    at most ``merge_gap`` bytes are coalesced into one sub-block — the gap
    bytes simply ride along, like the trailing fill of Section IV-F.
    """
    if mask < 0:
        raise ValueError("mask must be non-negative")
    runs: List[Tuple[int, int]] = []
    mask &= (1 << block_size) - 1
    prev_start = prev_end = -merge_gap - 1
    while mask:
        # The lowest run of set bits spans [i, j): adding its lowest bit
        # carries through it, and the AND clears it.
        low = mask & -mask
        rest = mask & (mask + low)
        i = low.bit_length() - 1
        j = (mask ^ rest).bit_length()
        mask = rest
        start = (i // granularity) * granularity
        end = min(-(-j // granularity) * granularity, block_size)
        if prev_end + merge_gap >= start:
            # Touching (after granularity snapping) or within the merge
            # gap: coalesce with the previous run.
            runs[-1] = (prev_start, end - prev_start)
        else:
            prev_start = start
            runs.append((start, end - start))
        prev_end = end
    return runs


def mask_of_run(start: int, length: int) -> int:
    """Bit mask covering ``length`` bytes from ``start``."""
    return ((1 << length) - 1) << start
