"""Differential tests: optimized baseline cores vs the naive reference twins.

:class:`repro.cpu.ooo.OutOfOrderCore` / :class:`repro.cpu.inorder.InOrderCore`
run a local-state hot loop (hoisted config and memory methods, inlined
dispatch-slot and ROB gating, counters accumulated locally and written
back in a ``finally``).  :class:`repro.cpu.reference.ReferenceOutOfOrderCore`
/ :class:`repro.cpu.reference.ReferenceInOrderCore` keep the uop-by-uop
loop.  Identical hypothesis-generated traces drive both from identical
warm state and must leave the same per-uop completion times, completion
time, core counters and full memory stats registry — after every
``execute`` call, including traces split across many calls and cores
interleaved over a shared CMP LLC.

The traces cover every uop kind, L1 / LLC / DRAM hits, TLB misses (and
the software trap they cost the baseline cores), shared in-flight page
walks, mispredicted branches and ROB-full windows.  The file also holds
the record-type contract of :class:`~repro.cpu.uops.Uop` and
:class:`~repro.mem.hierarchy.AccessResult` and the out-of-range
dependency regression tests.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cmp.system import ChipMultiprocessor
from repro.config import DEFAULT_CONFIG, CoreConfig, TlbConfig
from repro.cpu.inorder import InOrderCore
from repro.cpu.ooo import OutOfOrderCore
from repro.cpu.reference import ReferenceInOrderCore, ReferenceOutOfOrderCore
from repro.cpu.uops import Uop, UopKind
from repro.errors import SimulationError
from repro.mem.hierarchy import AccessResult, MemoryHierarchy
from repro.obs import StatsRegistry

#: A small TLB (8 x 64 KB pages): the far pool misses it constantly,
#: the other pools fit in it.
CONFIG = replace(DEFAULT_CONFIG,
                 tlb=TlbConfig(entries=8, page_bytes=64 * 1024))

BLOCK = CONFIG.l1d.block_bytes
HOT_BASE = 1 << 20          # a few blocks, touched over and over: L1 hits
WARM_BASE = 1 << 24         # warmed into the LLC only: LLC hits
WARM_BLOCKS = 2048
COLD_BASE = 1 << 26         # never warmed, two pages: DRAM fills
COLD_BLOCKS = 2048
FAR_BASE = 1 << 28          # never warmed, many pages: TLB misses (traps)
FAR_SPAN = 1 << 26

PAIRS = {"ooo": (OutOfOrderCore, ReferenceOutOfOrderCore),
         "inorder": (InOrderCore, ReferenceInOrderCore)}

KINDS = list(UopKind)


def address(pool: str, offset: int) -> int:
    if pool == "hot":
        return HOT_BASE + (offset % 8) * BLOCK
    if pool == "warm":
        return WARM_BASE + (offset % WARM_BLOCKS) * BLOCK
    if pool == "cold":
        return COLD_BASE + (offset % COLD_BLOCKS) * BLOCK
    return FAR_BASE + (offset * 8) % FAR_SPAN


# One uop as (kind, pool, offset, back-references, latency, mispredict);
# back-references become absolute deps once the stream position is known.
uop_specs = st.tuples(
    st.sampled_from(KINDS),
    st.sampled_from(["hot", "warm", "warm", "cold", "cold", "far"]),
    st.integers(min_value=0, max_value=1 << 20),
    st.lists(st.integers(min_value=1, max_value=40), max_size=3),
    st.integers(min_value=1, max_value=30),
    st.booleans(),
)


def materialize(specs, start: int = 0):
    """Turn uop specs into Uops whose deps name earlier stream positions."""
    uops = []
    for offset, (kind, pool, where, backs, latency, mispredict) in \
            enumerate(specs):
        position = start + offset
        deps = tuple(position - back for back in backs if back <= position)
        addr = (address(pool, where)
                if kind in (UopKind.LOAD, UopKind.STORE) else 0)
        uops.append(Uop(kind, addr, deps, latency, mispredict))
    return uops


def warmed_hierarchy(config=CONFIG) -> MemoryHierarchy:
    memory = MemoryHierarchy(config)
    memory.warm_range(WARM_BASE, WARM_BLOCKS * BLOCK)
    memory.warm_range(HOT_BASE, 8 * BLOCK, level="l1")
    for page in range(COLD_BLOCKS * BLOCK // CONFIG.tlb.page_bytes):
        memory.tlb.warm(COLD_BASE + page * CONFIG.tlb.page_bytes)
    return memory


def core_config(kind: str, width: int, rob: int) -> CoreConfig:
    if kind == "ooo":
        return CoreConfig(name="ooo", issue_width=width,
                          rob_entries=max(rob, width), out_of_order=True)
    return CoreConfig(name="inorder", issue_width=width,
                      rob_entries=max(2, width), out_of_order=False)


def snapshot(core, memory) -> tuple:
    """Everything observable about a core run."""
    registry = StatsRegistry()
    core.register_into(registry, "cpu")
    memory.register_into(registry, "mem")
    horizons = list(getattr(core, "_horizons", ()))
    return (core.completion_time, list(core._all_done), horizons,
            core.uops_executed.value, core.loads_issued.value,
            core.mem_stall_cycles.value, core.tlb_stall_cycles.value,
            registry.to_dict())


def split(uops, cuts):
    """Split a trace at the (sorted, deduplicated) cut points."""
    bounds = [0] + sorted({cut % (len(uops) + 1) for cut in cuts}) \
        + [len(uops)]
    return [uops[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("kind", ["ooo", "inorder"])
@settings(max_examples=60, deadline=None)
@given(specs=st.lists(uop_specs, min_size=1, max_size=260),
       cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=4),
       width=st.sampled_from([1, 2, 4]),
       rob=st.sampled_from([4, 16, 128]),
       penalty=st.integers(min_value=1, max_value=25))
def test_cores_match_reference(kind, specs, cuts, width, rob, penalty):
    optimized_cls, reference_cls = PAIRS[kind]
    config = core_config(kind, width, rob)
    uops = materialize(specs)
    runs = []
    for cls in (optimized_cls, reference_cls):
        memory = warmed_hierarchy()
        core = cls(config, memory, mispredict_penalty=penalty)
        states = []
        for chunk in split(uops, cuts):
            core.execute(iter(chunk))
            states.append(snapshot(core, memory))
        runs.append(states)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kind", ["ooo", "inorder"])
@settings(max_examples=25, deadline=None)
@given(streams=st.lists(st.lists(uop_specs, min_size=1, max_size=60),
                        min_size=2, max_size=4))
def test_cmp_shared_llc_interleaving_matches_reference(kind, streams):
    """Several cores round-robin one trace each over one shared LLC and
    memory-controller bank (the multi-core baseline's schedule)."""
    runs = []
    for cls in PAIRS[kind]:
        chip = ChipMultiprocessor(CONFIG, num_cores=len(streams))
        for hierarchy in chip.cores:
            hierarchy.warm_range(WARM_BASE, WARM_BLOCKS * BLOCK)
        cores = [cls(getattr(CONFIG, kind), hierarchy)
                 for hierarchy in chip.cores]
        positions = [0] * len(streams)
        states = []
        for step in range(max(len(specs) for specs in streams)):
            for index, specs in enumerate(streams):
                chunk = specs[step:step + 1]
                if not chunk:
                    continue
                cores[index].execute(materialize(chunk, positions[index]))
                positions[index] += 1
                states.append((cores[index].completion_time,
                               cores[index].uops_executed.value))
        registry = StatsRegistry()
        chip.register_into(registry)
        runs.append((states,
                     [(core.completion_time, core._all_done,
                       core.mem_stall_cycles.value,
                       core.tlb_stall_cycles.value) for core in cores],
                     registry.to_dict()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kind", ["ooo", "inorder"])
@pytest.mark.parametrize("width", [1, 2, 4])
@pytest.mark.parametrize("pool", ["cold", "far"])
def test_rob_full_windows_and_tlb_traps(kind, width, pool):
    """Fixed traces that certainly fill a small ROB behind DRAM misses
    (``cold``) or trap on TLB misses (``far``): a miss, then more
    independent ALU ops than the window holds, some of them branches
    that mispredict."""
    uops = []
    for index in range(24):
        uops.append(Uop(UopKind.LOAD, address(pool, index * 97)))
        uops.extend(Uop(UopKind.ALU) for _ in range(9))
        uops.append(Uop(UopKind.BRANCH, deps=(len(uops) - 1,),
                        mispredict=index % 5 == 0))
    config = core_config(kind, width, 8)
    results = []
    for cls in PAIRS[kind]:
        memory = warmed_hierarchy()
        core = cls(config, memory)
        core.execute(uops)
        results.append(snapshot(core, memory))
        assert memory.stats.dram_blocks.value > 0
        assert (core.tlb_stall_cycles.value > 0) == (pool == "far")
    assert results[0] == results[1]


@pytest.mark.parametrize("kind", ["ooo", "inorder"])
@pytest.mark.parametrize("width", [1, 2, 4])
def test_tlb_trap_on_an_l1_resident_block(kind, width):
    """A load whose block is in the L1 but whose page is not in the TLB
    traps without a cache miss; the uops behind it must issue exactly
    as the reference's per-uop front end lets them."""
    uops = []
    for index in range(6):
        uops.append(Uop(UopKind.LOAD, address("hot", index)))
        uops.extend(Uop(UopKind.ALU) for _ in range(7))
        uops.append(Uop(UopKind.LOAD, address("far", index * 4099)))
    config = core_config(kind, width, 16)
    results = []
    for cls in PAIRS[kind]:
        memory = MemoryHierarchy(CONFIG)
        for index in range(8):
            memory.l1d.warm(memory.l1d.block_of(address("hot", index)))
        core = cls(config, memory)
        core.execute(uops)
        results.append(snapshot(core, memory))
        assert memory.stats.l1d.hits.value > 0
        assert core.tlb_stall_cycles.value > 0
    assert results[0] == results[1]


# ----------------------------------------------------------------------
# out-of-range dependencies raise instead of being dropped
# ----------------------------------------------------------------------

@pytest.mark.parametrize("cls", [OutOfOrderCore, InOrderCore,
                                 ReferenceOutOfOrderCore,
                                 ReferenceInOrderCore])
@pytest.mark.parametrize("dep", [-1, 2, 3, 50])
def test_out_of_range_dep_raises(cls, dep):
    config = DEFAULT_CONFIG.ooo if issubclass(cls, OutOfOrderCore) \
        else DEFAULT_CONFIG.inorder
    core = cls(config, MemoryHierarchy(DEFAULT_CONFIG))
    uops = [Uop(UopKind.ALU), Uop(UopKind.ALU, deps=(0,)),
            Uop(UopKind.ALU, deps=(dep,))]
    with pytest.raises(SimulationError,
                       match=rf"position 2 depends on position {dep}\b"):
        core.execute(uops)
    # The uops before the bad one executed and are counted.
    assert core.uops_executed.value == 2
    assert len(core._all_done) == 2


@pytest.mark.parametrize("kind", ["ooo", "inorder"])
def test_bad_dep_leaves_identical_state_on_both_twins(kind):
    """The exception path writes back the same state as per-uop
    bookkeeping, and a later call continues the stream normally."""
    states = []
    for cls in PAIRS[kind]:
        memory = warmed_hierarchy()
        core = cls(getattr(CONFIG, kind), memory)
        good = [Uop(UopKind.LOAD, COLD_BASE), Uop(UopKind.ALU, deps=(0,))]
        with pytest.raises(SimulationError):
            core.execute(good + [Uop(UopKind.BRANCH, deps=(7,))])
        states.append(snapshot(core, memory))
        core.execute([Uop(UopKind.ALU, deps=(1,))])
        states.append(snapshot(core, memory))
    assert states[:2] == states[2:]


def test_dependency_across_execute_calls_is_resolved():
    core = OutOfOrderCore(DEFAULT_CONFIG.ooo, MemoryHierarchy(DEFAULT_CONFIG))
    core.execute([Uop(UopKind.ALU, latency=30)])
    core.execute([Uop(UopKind.ALU, deps=(0,))])
    assert core._all_done[1] == core._all_done[0] + 1


# ----------------------------------------------------------------------
# record contracts: Uop and AccessResult
# ----------------------------------------------------------------------

def test_uop_value_semantics():
    a = Uop(UopKind.LOAD, addr=64, deps=(1, 2), latency=3, mispredict=False)
    b = Uop(UopKind.LOAD, 64, (1, 2), 3, False)
    assert a == b and hash(a) == hash(b)
    assert a != Uop(UopKind.LOAD, addr=128, deps=(1, 2), latency=3)
    assert a != Uop(UopKind.LOAD, addr=64, deps=(1,), latency=3)
    assert Uop(UopKind.BRANCH, mispredict=True) != Uop(UopKind.BRANCH)
    assert a != (UopKind.LOAD, 64, (1, 2), 3, False)
    assert len({a, b, Uop(UopKind.ALU)}) == 2
    assert repr(Uop(UopKind.ALU)) == (
        "Uop(kind=<UopKind.ALU: 'alu'>, addr=0, deps=(), latency=1, "
        "mispredict=False)")


def test_uop_defaults():
    uop = Uop(UopKind.ALU)
    assert (uop.addr, uop.deps, uop.latency, uop.mispredict) == \
        (0, (), 1, False)


@pytest.mark.parametrize("kind", [UopKind.LOAD, UopKind.STORE])
def test_memory_uop_needs_address(kind):
    with pytest.raises(ValueError,
                       match=f"^{kind.value} uop needs a target address$"):
        Uop(kind)


@pytest.mark.parametrize("latency", [0, -3])
def test_uop_latency_must_be_positive(latency):
    with pytest.raises(ValueError, match="^uop latency must be >= 1$"):
        Uop(UopKind.ALU, latency=latency)


def test_address_check_precedes_latency_check():
    with pytest.raises(ValueError, match="needs a target address"):
        Uop(UopKind.LOAD, latency=0)


def test_access_result_value_semantics():
    a = AccessResult(12.0, 0.0, "L1")
    assert a == AccessResult(12.0, 0.0, "L1")
    assert hash(a) == hash(AccessResult(12.0, 0.0, "L1"))
    assert a != AccessResult(12.0, 0.0, "LLC")
    assert a != AccessResult(13.0, 0.0, "L1")
    assert a != (12.0, 0.0, "L1")
    assert a.latency(10.0) == 2.0
    assert repr(a) == "AccessResult(complete=12.0, tlb_stall=0.0, level='L1')"
    assert (a.complete, a.tlb_stall, a.level) == (12.0, 0.0, "L1")
