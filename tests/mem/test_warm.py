"""Closed-form warm-up vs the block-by-block warm-up loop.

``warm_range`` installs the TLB pages, and the cache blocks of a range that
fills the cache, in closed form: only what survives LRU, with the ticks the
per-block loop would have given them.  These tests drive an
optimized memory and a twin warmed block by block through the same mixed
streams of warm-ups and timed loads, on every memory attachment, and
require identical TLB and cache state after every step.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.config import DEFAULT_CONFIG, CacheConfig, TlbConfig
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.llcside import LlcSideMemory
from repro.mem.pimside import PimBankMemory
from repro.mem.reference import use_reference_arrays
from repro.mem.tlb import Tlb

#: Small enough that warm-ups overflow every level and evict what the
#: stream warmed or loaded before.
SMALL = replace(
    DEFAULT_CONFIG,
    l1d=CacheConfig(size_bytes=2048, block_bytes=64, associativity=2,
                    latency_cycles=2, ports=2, mshrs=4),
    llc=CacheConfig(size_bytes=16 * 1024, block_bytes=64, associativity=4,
                    latency_cycles=6, ports=2, mshrs=8),
    tlb=TlbConfig(entries=6, page_bytes=4096))

ATTACHMENTS = {
    "hierarchy": MemoryHierarchy,
    "llcside": LlcSideMemory,
    "pim": PimBankMemory,
}
BASE = 0x10_0000


def caches_of(memory):
    """The cache levels a warm at ``level`` fills, spelled out per
    attachment (the PIM path has no shared cache)."""
    shared = [memory.llc] if hasattr(memory, "llc") else []
    return {"l1": [memory.l1d] + shared, "llc": shared}


def warm_block_by_block(memory, base, size, level):
    """The per-block loop ``warm_range`` replaced; an empty or negative
    range warms nothing."""
    if size <= 0:
        return
    block_bytes = memory.l1d.cfg.block_bytes
    addr = base - base % block_bytes
    while addr < base + size:
        memory.tlb.warm(addr)
        for cache in caches_of(memory)[level]:
            cache.warm(addr // block_bytes)
        addr += block_bytes


def state(memory):
    arrays = [cache.array for cache in caches_of(memory)["l1"]]
    return ([(array._entries, array._sets, array._tick) for array in arrays],
            memory.tlb._entries, memory.tlb._tick)


def mixed_stream(seed, span):
    """Overlapping, unaligned, repeated, empty and oversized warm-ups at
    both levels, interleaved with timed loads."""
    rng = random.Random(seed)
    ops, now = [], 0.0
    for _ in range(40):
        roll = rng.random()
        if roll < 0.25:
            now += 50.0
            ops.append(("load", BASE + rng.randrange(span) // 8 * 8, now))
            continue
        base = BASE + rng.randrange(span)
        size = rng.choice([0, -7, 1, 63, 64, 65, rng.randrange(4096),
                           rng.randrange(span), 3 * span])
        ops.append(("warm", base, size, rng.choice(["llc", "l1"])))
        if roll > 0.9:
            ops.append(ops[-1])  # the same range again
    return ops


@pytest.mark.parametrize("attachment", sorted(ATTACHMENTS))
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_closed_form_matches_block_loop(attachment, seed):
    make = ATTACHMENTS[attachment]
    closed, looped = make(SMALL), make(SMALL)
    assert state(closed) == state(looped)
    for op in mixed_stream(seed, span=3 * SMALL.llc.size_bytes):
        if op[0] == "load":
            assert closed.load(*op[1:]) == looped.load(*op[1:])
        else:
            _, base, size, level = op
            closed.warm_range(base, size, level)
            warm_block_by_block(looped, base, size, level)
        assert state(closed) == state(looped), op


@pytest.mark.parametrize("attachment", sorted(ATTACHMENTS))
def test_default_geometry_large_warm(attachment):
    """A Large-index-sized warm on the shipped geometry, over a pre-warmed
    state, at both levels."""
    make = ATTACHMENTS[attachment]
    closed, looped = make(DEFAULT_CONFIG), make(DEFAULT_CONFIG)
    llc_bytes = DEFAULT_CONFIG.llc.size_bytes
    for base, size, level in ((BASE + 4096, 40_000, "l1"),
                              (BASE + 100, llc_bytes + 4 * 64 * 1024 + 3,
                               "llc"),
                              (BASE + 3 * llc_bytes // 2, 9000, "l1")):
        closed.warm_range(base, size, level)
        warm_block_by_block(looped, base, size, level)
        assert state(closed) == state(looped)


def test_reference_arrays_keep_the_block_loop():
    """The naive recency-list arrays warm block by block and end in the
    same LRU order the closed form computes."""
    closed = MemoryHierarchy(SMALL)
    naive = use_reference_arrays(MemoryHierarchy(SMALL))
    for base, size, level in ((BASE + 5, 30_000, "l1"), (BASE + 700, 9000, "llc"),
                              (BASE + 20_000, 64, "l1")):
        closed.warm_range(base, size, level)
        naive.warm_range(base, size, level)
    for fast, slow in ((closed.l1d.array, naive.l1d.array),
                       (closed.llc.array, naive.llc.array)):
        assert {index: sorted(members, key=fast._entries.__getitem__)
                for index, members in fast._sets.items()} == slow._sets


@pytest.mark.parametrize("attachment", sorted(ATTACHMENTS))
@pytest.mark.parametrize("size", [0, -1, -64])
def test_empty_range_warms_nothing(attachment, size):
    memory = ATTACHMENTS[attachment](DEFAULT_CONFIG)
    before = state(memory)
    for level in ("llc", "l1"):
        memory.warm_range(BASE + 24, size, level)  # unaligned base
    assert state(memory) == before
    assert memory.load(BASE + 24, 0.0).level == "DRAM"


@pytest.mark.parametrize("page_bytes", [16, 64, 256, 4096])
def test_tlb_closed_form_any_page_size(page_bytes):
    closed = Tlb(TlbConfig(entries=5, page_bytes=page_bytes))
    looped = Tlb(TlbConfig(entries=5, page_bytes=page_bytes))
    rng = random.Random(page_bytes)
    for _ in range(60):
        first, count = rng.randrange(400), rng.randrange(-2, 300)
        closed.warm_blocks(first, count, 6)
        for block in range(first, first + count):
            looped.warm(block << 6)
        assert (closed._entries, closed._tick) == (looped._entries,
                                                   looped._tick)
