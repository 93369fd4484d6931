"""The full memory hierarchy: TLB → L1-D → crossbar → LLC → DRAM.

This is the timing heart of the reproduction.  Every load/store issued by a
baseline core model or a Widx unit flows through :meth:`MemoryHierarchy.load`
or :meth:`MemoryHierarchy.store`, which:

1. translates through the shared TLB (bounded in-flight page walks),
2. wins an L1-D port (2 ports, 1 access/port/cycle),
3. on an L1 miss, claims an MSHR (10; same-block misses combine),
4. traverses the crossbar to the LLC (6-cycle hit),
5. on an LLC miss, fetches the block from a bandwidth-limited memory
   controller (45 ns + transfer slot),

returning an :class:`AccessResult` with the completion time and a
TLB-vs-memory stall attribution used by the Figure 8/9 cycle breakdowns.

Simplifications (documented per DESIGN.md): write-backs of dirty victims do
not consume modelled bandwidth, and the L1-I side is not modelled (Widx
units fetch from a tiny instruction buffer; the baseline indexing loops fit
in the L1-I).  Neither affects who wins or where crossovers fall: both add
small constant factors to all designs equally.
"""

from __future__ import annotations

from ..config import SystemConfig
from .cache import CacheLevel
from .dram import MemoryControllers
from .interconnect import Crossbar
from .stats import MemoryStats
from .tlb import Tlb


def warm_levels(level: str, l1d, llc) -> tuple:
    """The cache levels a warm-up at ``level`` installs blocks in: the L1
    level fills the L1 and the shared cache behind it, ``"llc"`` only the
    shared cache (``llc=None``: the path has none)."""
    shared = () if llc is None else (llc,)
    if level in ("l1", "l1d"):
        return (l1d,) + shared
    if level == "llc":
        return shared
    raise ValueError(f"unknown warm level {level!r}")


def warm_span(tlb, levels, base: int, size: int, block_bytes: int) -> None:
    """Functionally warm every ``block_bytes`` block of ``[base,
    base+size)`` into ``tlb`` and each cache level, with the state a
    block-by-block warm-up in address order leaves; an empty or negative
    range warms nothing."""
    if size <= 0:
        return
    block_bits = block_bytes.bit_length() - 1
    first = base >> block_bits
    count = ((base + size - 1) >> block_bits) - first + 1
    tlb.warm_blocks(first, count, block_bits)
    for cache in levels:
        cache.array.warm_blocks(first, count)


class AccessResult:
    """Timing outcome of one memory access.

    ``complete`` is the absolute cycle the data is usable (load-to-use),
    ``tlb_stall`` the cycles attributable to address translation and
    ``level`` where the data came from (``'L1'``, ``'LLC'`` or
    ``'DRAM'``).  A plain ``__slots__`` record, built once per simulated
    access; equality, hash and repr are by value, so treat instances as
    immutable.
    """

    __slots__ = ("complete", "tlb_stall", "level")

    def __init__(self, complete: float, tlb_stall: float,
                 level: str) -> None:
        self.complete = complete
        self.tlb_stall = tlb_stall
        self.level = level

    def latency(self, issued: float) -> float:
        """Cycles from issue to data-usable."""
        return self.complete - issued

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.complete, self.tlb_stall, self.level)
                == (other.complete, other.tlb_stall, other.level))

    def __hash__(self) -> int:
        return hash((self.complete, self.tlb_stall, self.level))

    def __repr__(self) -> str:
        return (f"AccessResult(complete={self.complete!r}, "
                f"tlb_stall={self.tlb_stall!r}, level={self.level!r})")


class MemoryHierarchy:
    """Timing model of one core's view of the memory system.

    ``shared_llc`` / ``shared_dram`` let several cores' hierarchies share
    one LLC and one memory-controller bank — the Table 2 CMP, where four
    cores contend for the 4 MB LLC and two DDR3 channels (see
    :mod:`repro.cmp`).  TLB, L1-D and the crossbar port stay private.
    """

    def __init__(self, cfg: SystemConfig,
                 shared_llc: CacheLevel = None,
                 shared_dram: MemoryControllers = None) -> None:
        self.cfg = cfg
        self.tlb = Tlb(cfg.tlb)
        self.l1d = CacheLevel(cfg.l1d, "L1-D")
        self.llc = (shared_llc if shared_llc is not None
                    else CacheLevel(cfg.llc, "LLC"))
        self.crossbar = Crossbar(cfg.interconnect_cycles)
        self.dram = (shared_dram if shared_dram is not None
                     else MemoryControllers(cfg.dram, cfg.freq_ghz,
                                            cfg.llc.block_bytes))
        self.stats = MemoryStats()
        # Share the per-level stats objects so both views stay consistent.
        self.stats.l1d = self.l1d.stats
        self.stats.llc = self.llc.stats
        self.stats.tlb = self.tlb.stats

    # ------------------------------------------------------------------
    # Timed access paths
    # ------------------------------------------------------------------

    def load(self, addr: int, now: float) -> AccessResult:
        """A demand load issued at time ``now``."""
        self.stats.loads.value += 1
        return self._access(addr, now)

    def store(self, addr: int, now: float) -> AccessResult:
        """A store issued at time ``now`` (write-allocate, write-back)."""
        self.stats.stores.value += 1
        return self._access(addr, now)

    def touch(self, addr: int, now: float) -> AccessResult:
        """A prefetch (Widx TOUCH): starts the fill; caller does not wait."""
        self.l1d.stats.prefetches.value += 1
        return self._access(addr, now)

    def _access(self, addr: int, now: float) -> AccessResult:
        translated, tlb_stall = self.tlb.translate(addr, now)
        l1d = self.l1d
        block = addr >> l1d.array.block_bits
        port_time = l1d.ports.request(translated)
        outcome = l1d.probe(block, port_time)
        if outcome is None:  # L1 hit
            return AccessResult(port_time + self.cfg.l1d.latency_cycles,
                                tlb_stall, "L1")
        if outcome >= 0:  # combined with an in-flight miss
            return AccessResult(max(outcome, port_time + self.cfg.l1d.latency_cycles),
                                tlb_stall, "L1")
        # Fresh L1 miss: MSHR, then LLC.
        llc = self.llc
        miss_start = l1d.begin_miss(port_time)
        llc_arrival = self.crossbar.traverse(miss_start)
        llc_block = block  # block sizes match by config invariant
        llc_port = llc.ports.request(llc_arrival)
        llc_outcome = llc.probe(llc_block, llc_port)
        if llc_outcome is None:  # LLC hit
            data_at_llc = llc_port + self.cfg.llc.latency_cycles
            level = "LLC"
        elif llc_outcome >= 0:  # combined at the LLC
            data_at_llc = max(llc_outcome, llc_port + self.cfg.llc.latency_cycles)
            level = "LLC"
        else:  # LLC miss: off-chip
            llc_miss_start = llc.begin_miss(llc_port)
            data_at_llc = self.dram.fetch(llc_block, llc_miss_start)
            llc.finish_miss(llc_block, data_at_llc)
            self.stats.dram_blocks.value += 1
            level = "DRAM"
        fill_time = self.crossbar.traverse(data_at_llc)
        l1d.finish_miss(block, fill_time)
        return AccessResult(fill_time, tlb_stall, level)

    # ------------------------------------------------------------------
    # Functional warm-up (SimFlex-style warm checkpoints)
    # ------------------------------------------------------------------

    def warm_block(self, addr: int, level: str = "llc") -> None:
        """Install the block (and its translation) with no timing effect."""
        self.warm_range(addr, 1, level)

    def warm_range(self, base: int, size: int, level: str = "llc") -> None:
        """Warm every block of ``[base, base+size)``."""
        warm_span(self.tlb, warm_levels(level, self.l1d, self.llc),
                  base, size, self.cfg.l1d.block_bytes)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def register_into(self, registry, prefix: str = "mem",
                      include_shared: bool = True) -> None:
        """Publish every component's counters under ``prefix``.

        ``include_shared=False`` skips the LLC and DRAM — used by the CMP,
        where those are shared across cores and registered once at the
        chip level.
        """
        self.stats.register_into(registry, prefix)
        self.tlb.register_into(registry, f"{prefix}.tlb")
        self.l1d.register_into(registry, f"{prefix}.l1d")
        self.crossbar.register_into(registry, f"{prefix}.crossbar")
        if include_shared:
            self.llc.register_into(registry, f"{prefix}.llc")
            self.dram.register_into(registry, f"{prefix}.dram")
