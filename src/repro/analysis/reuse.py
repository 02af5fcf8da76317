"""Reuse-distance and working-set analysis at cache-block granularity.

``reuse_distance_histogram`` computes exact LRU stack distances over the
64-byte-block access stream — the quantity that determines how much a
cache of any size can help. A fully-associative LRU cache of capacity C
hits every access whose stack distance is < C, so the histogram directly
predicts the miss-rate-vs-capacity curve the paper's Fig. 11 sweeps.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from ..params import TRANSFER_BLOCK
from ..trace.arrays import ArrayTrace


def reuse_distance_histogram(trace: ArrayTrace,
                             bucket_edges: Sequence[int] = (
                                 8, 16, 32, 64, 128, 256, 512, 1024,
                                 2048, 4096, 8192,
                             )) -> Dict[str, int]:
    """Bucketed LRU stack-distance histogram of the block access stream.

    Returns counts per bucket label (``"<8"``, ``"<16"``, ..., ``">=8192"``
    and ``"cold"`` for first references). Distances are in *distinct
    blocks*, so a bucket edge of 512 corresponds to a 32 KiB
    fully-associative cache.

    Implementation: timestamp list + binary indexed tree counting live
    timestamps greater than the block's previous access — O(n log n).
    """
    last_access: Dict[int, int] = {}
    # Fenwick tree over access timestamps (1-based).
    n = len(trace)
    tree = [0] * (n + 2)

    def tree_add(i: int, delta: int) -> None:
        i += 1
        while i < len(tree):
            tree[i] += delta
            i += i & (-i)

    def tree_sum(i: int) -> int:
        i += 1
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    histogram: Counter = Counter()
    edges = list(bucket_edges)
    labels = [f"<{e}" for e in edges] + [f">={edges[-1]}"]

    time = 0
    prev_block = None
    for pc in trace.pc:
        block = pc >> 6
        if block == prev_block:
            continue            # streaks within a block are one access
        prev_block = block
        prev_time = last_access.get(block)
        if prev_time is None:
            histogram["cold"] += 1
        else:
            # Distinct blocks touched since the previous access.
            distance = tree_sum(time - 1) - tree_sum(prev_time)
            tree_add(prev_time, -1)
            for edge, label in zip(edges, labels):
                if distance < edge:
                    histogram[label] += 1
                    break
            else:
                histogram[labels[-1]] += 1
        last_access[block] = time
        tree_add(time, 1)
        time += 1
    return dict(histogram)


def working_set_curve(trace: ArrayTrace,
                      window: int = 10_000) -> List[Tuple[int, float]]:
    """Unique instruction blocks touched per window of N instructions.

    Returns (window_start_index, footprint_kib) points — a coarse view of
    phase behaviour.
    """
    points: List[Tuple[int, float]] = []
    seen: set = set()
    start = 0
    for i, pc in enumerate(trace.pc):
        seen.add(pc >> 6)
        if (i + 1) % window == 0:
            points.append((start, len(seen) * TRANSFER_BLOCK / 1024))
            seen = set()
            start = i + 1
    if seen:
        points.append((start, len(seen) * TRANSFER_BLOCK / 1024))
    return points
