"""Configuration dataclasses for every simulated structure.

Defaults follow Table I (microarchitectural parameters) and Table II (UBS
cache parameters) of the paper. All sizes are bytes and all latencies are
core cycles unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Tuple

from .errors import ConfigurationError

#: Transfer granularity between L1-I and the lower-level caches. The paper
#: keeps a 64-byte block across the entire hierarchy (Section V).
TRANSFER_BLOCK = 64

#: Way sizes of the default 16-way UBS cache (Table II). They sum to 444
#: bytes; together with the 64-byte predictor way a set stores 508 bytes.
DEFAULT_UBS_WAY_SIZES: Tuple[int, ...] = (
    4, 4, 8, 8, 8, 12, 12, 16, 24, 32, 36, 36, 52, 64, 64, 64,
)


def _check_power_of_two(value: int, what: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ConfigurationError(f"{what} must be a positive power of two, got {value}")


@dataclass(frozen=True)
class CacheParams:
    """Geometry and timing of one conventional cache level."""

    name: str
    size: int
    ways: int
    latency: int
    mshr_entries: int
    block_size: int = TRANSFER_BLOCK
    replacement: str = "lru"

    def __post_init__(self) -> None:
        if self.ways <= 0:
            raise ConfigurationError(f"{self.name}: ways must be positive")
        if self.size % (self.ways * self.block_size):
            raise ConfigurationError(
                f"{self.name}: size {self.size} is not divisible by "
                f"ways*block ({self.ways}x{self.block_size})"
            )
        _check_power_of_two(self.sets, f"{self.name}: number of sets")
        _check_power_of_two(self.block_size, f"{self.name}: block size")

    @property
    def sets(self) -> int:
        return self.size // (self.ways * self.block_size)

    @property
    def offset_bits(self) -> int:
        return int(math.log2(self.block_size))

    @property
    def index_bits(self) -> int:
        return int(math.log2(self.sets))


@dataclass(frozen=True)
class DramParams:
    """A simple single-channel DDR model (Table I).

    The paper's timings are 12.5 ns each for tRP, tRCD and tCAS at a DRAM
    clock of 3200 MHz; with a 4 GHz core that is 50 core cycles per timing
    component. We express them directly in core cycles.
    """

    channels: int = 1
    ranks: int = 1
    banks: int = 8
    row_size: int = 8192
    t_rp: int = 50
    t_rcd: int = 50
    t_cas: int = 50
    bus_cycles: int = 4

    @property
    def row_hit_latency(self) -> int:
        return self.t_cas + self.bus_cycles

    @property
    def row_miss_latency(self) -> int:
        return self.t_rp + self.t_rcd + self.t_cas + self.bus_cycles


@dataclass(frozen=True)
class BranchParams:
    """Branch prediction unit parameters (Table I)."""

    btb_entries: int = 4096
    btb_ways: int = 8
    ras_entries: int = 64
    perceptron_tables: int = 8
    perceptron_entries: int = 4096
    perceptron_history: int = 64
    perceptron_threshold: int = 18

    def __post_init__(self) -> None:
        _check_power_of_two(self.btb_entries, "btb_entries")
        _check_power_of_two(self.perceptron_entries, "perceptron_entries")
        if self.btb_entries % self.btb_ways:
            raise ConfigurationError("btb_entries must be divisible by btb_ways")


@dataclass(frozen=True)
class CoreParams:
    """Out-of-order core parameters (Table I)."""

    fetch_width: int = 4          # instructions per cycle
    fetch_bytes: int = 16         # maximum bytes fetched per cycle
    decode_width: int = 4
    commit_width: int = 4
    rob_entries: int = 224
    scheduler_entries: int = 97
    load_queue: int = 128
    store_queue: int = 72
    decode_latency: int = 5       # fetch->dispatch pipeline depth
    btb_resteer_penalty: int = 5  # decode-time resteer on BTB misses
    ftq_entries: int = 128
    fdip_degree: int = 2          # prefetches FDIP may issue per cycle
    bpu_ranges_per_cycle: int = 2 # fetch ranges the BPU can produce per cycle
    #: Instruction prefetcher: "fdip" (Table I default), "nextline"
    #: (prefetch the next N sequential blocks on a demand miss) or "none".
    prefetcher: str = "fdip"
    nextline_degree: int = 2      # blocks fetched ahead by "nextline"

    def __post_init__(self) -> None:
        if self.prefetcher not in ("fdip", "nextline", "none"):
            raise ConfigurationError(
                f"unknown prefetcher {self.prefetcher!r}"
            )


@dataclass(frozen=True)
class UBSParams:
    """Uneven Block Size cache parameters (Table II)."""

    sets: int = 64
    way_sizes: Tuple[int, ...] = DEFAULT_UBS_WAY_SIZES
    predictor_sets: int = 64
    predictor_ways: int = 1            # 1 => direct mapped
    predictor_policy: str = "lru"      # lru | fifo (ignored when direct mapped)
    latency: int = 4
    mshr_entries: int = 8
    instruction_granularity: int = 4   # bit-vector granularity (4 B for RISC)
    #: Accessed runs separated by a gap of at most this many bytes are
    #: installed as one sub-block (the gap bytes ride along, exactly like
    #: the Section IV-F trailing fill). Keeps tiny gaps from doubling the
    #: number of ways a block occupies.
    run_merge_gap: int = 12
    #: How many ways (starting from the closest-fitting one) the modified
    #: LRU considers when placing a sub-block (Section IV-F uses 4).
    candidate_window: int = 4
    #: Replacement used to pick a victim among the candidate ways:
    #: "lru" (the paper's modified LRU) or "ghrp" (the paper notes UBS is
    #: complementary to predictive replacement).
    replacement: str = "lru"

    def __post_init__(self) -> None:
        _check_power_of_two(self.sets, "UBS sets")
        _check_power_of_two(self.predictor_sets, "UBS predictor sets")
        if not self.way_sizes:
            raise ConfigurationError("UBS cache needs at least one way")
        if any(w <= 0 or w > TRANSFER_BLOCK for w in self.way_sizes):
            raise ConfigurationError(
                f"UBS way sizes must be in 1..{TRANSFER_BLOCK}: {self.way_sizes}"
            )
        if list(self.way_sizes) != sorted(self.way_sizes):
            raise ConfigurationError("UBS way sizes must be sorted ascending")
        if self.instruction_granularity not in (1, 2, 4):
            raise ConfigurationError("instruction granularity must be 1, 2 or 4")
        if any(w % self.instruction_granularity for w in self.way_sizes):
            raise ConfigurationError(
                "UBS way sizes must be multiples of the instruction granularity"
            )
        if self.candidate_window < 1:
            raise ConfigurationError("candidate window must be at least 1")
        if self.replacement not in ("lru", "ghrp"):
            raise ConfigurationError(
                f"UBS replacement must be lru or ghrp, got {self.replacement!r}"
            )

    @property
    def data_bytes_per_set(self) -> int:
        """Data storage of one set including the predictor way."""
        return sum(self.way_sizes) + TRANSFER_BLOCK * self.predictor_ways

    @property
    def data_capacity(self) -> int:
        return self.sets * self.data_bytes_per_set


@dataclass(frozen=True)
class MachineParams:
    """Everything needed to build one simulated machine."""

    core: CoreParams = field(default_factory=CoreParams)
    branch: BranchParams = field(default_factory=BranchParams)
    l1i: CacheParams = field(
        default_factory=lambda: CacheParams(
            name="L1I", size=32 * 1024, ways=8, latency=4, mshr_entries=8
        )
    )
    l1d: CacheParams = field(
        default_factory=lambda: CacheParams(
            name="L1D", size=48 * 1024, ways=12, latency=5, mshr_entries=16
        )
    )
    l2: CacheParams = field(
        default_factory=lambda: CacheParams(
            name="L2", size=512 * 1024, ways=8, latency=12, mshr_entries=32
        )
    )
    l3: CacheParams = field(
        default_factory=lambda: CacheParams(
            name="L3", size=2 * 1024 * 1024, ways=16, latency=30, mshr_entries=64
        )
    )
    dram: DramParams = field(default_factory=DramParams)

    def with_l1i(self, l1i: CacheParams) -> "MachineParams":
        return replace(self, l1i=l1i)


def conventional_l1i(size: int, ways: int = 8, *, replacement: str = "lru",
                     latency: int = 4, block_size: int = TRANSFER_BLOCK,
                     mshr_entries: int = 8) -> CacheParams:
    """Convenience constructor for conventional L1-I variants."""
    return CacheParams(
        name="L1I",
        size=size,
        ways=ways,
        latency=latency,
        mshr_entries=mshr_entries,
        block_size=block_size,
        replacement=replacement,
    )
