"""Differential tests: the array bulk build vs the per-key ``insert`` loop.

:meth:`HashIndex.build` must leave exactly the state a loop of
:meth:`HashIndex.insert` calls leaves: the same bytes in simulated memory,
the same region table, the same counters and node allocation, and on bad
input the same exception from the same partial state.  The workload
builders all go through ``build``, so these tests pin every committed
figure's index layout.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db.column import Column
from repro.db.hashfn import ALL_HASHES, HashSpec, HashStep, kernel_hash
from repro.db.hashtable import HashIndex
from repro.db.node import KERNEL_LAYOUT, WIDE_LAYOUT, monetdb_layout
from repro.db.types import DataType
from repro.errors import PlanError
from repro.mem.layout import AddressSpace
from repro.workloads.hashjoin_kernel import KERNEL_SIZES, build_kernel_workload
from repro.workloads.queryspec import build_query_index
from repro.workloads.tpcds import TPCDS_QUERIES
from repro.workloads.tpch import TPCH_QUERIES

#: Every step kind once, so the vectorized hash covers each wraparound.
EVERY_STEP = HashSpec("every-step", (
    HashStep("add_shl", 7), HashStep("sub_shl", 13), HashStep("xor_shl", 29),
    HashStep("shl", 3), HashStep("add_const", const=0xFEDC_BA98_7654_3210),
    HashStep("xor_shr", 17), HashStep("xor_const", const=0x9E37_79B9),
    HashStep("shr", 2), HashStep("and_const", const=(1 << 62) - 1),
))
HASHES = list(ALL_HASHES.values()) + [kernel_hash(3), EVERY_STEP]
LAYOUTS = [KERNEL_LAYOUT, WIDE_LAYOUT, monetdb_layout(4), monetdb_layout(8)]
BULK_BUILD = HashIndex.build


def insert_each(index, keys, payloads):
    """The per-key reference twin of :meth:`HashIndex.build`."""
    if len(keys) != len(payloads):
        raise ValueError("keys and payloads must have equal length")
    for key, payload in zip(keys, payloads):
        index.insert(int(key), int(payload))


def image(space, index):
    """Everything a build may change, in comparable form."""
    memory = space.memory
    return (bytes(memory._store), memory.allocated_bytes, space.regions(),
            index.num_keys, index._overflow_nodes, index._next_node,
            index.footprint_bytes)


def assert_same_build(build_twins):
    """Run one build recipe through ``build`` and through the insert loop."""
    results = []
    for builder in (BULK_BUILD, insert_each):
        space, index = build_twins(builder)
        results.append(image(space, index) + (index.stats(),))
    assert results[0] == results[1]


@pytest.mark.parametrize("size", [
    pytest.param(size, marks=[pytest.mark.slow] if size == "Large" else [])
    for size in KERNEL_SIZES])
def test_kernel_workload_matches_insert_loop(size, monkeypatch):
    def twins(builder):
        monkeypatch.setattr(HashIndex, "build", builder)
        index, probes = build_kernel_workload(size, 64, seed=5)
        return index.space, index
    assert_same_build(twins)


@pytest.mark.slow
@pytest.mark.parametrize("spec", TPCH_QUERIES + TPCDS_QUERIES,
                         ids=lambda spec: f"{spec.benchmark}-{spec.label}")
def test_query_index_matches_insert_loop(spec, monkeypatch):
    def twins(builder):
        monkeypatch.setattr(HashIndex, "build", builder)
        index, probes = build_query_index(spec, probe_count=32)
        return index.space, index
    assert_same_build(twins)


def make_index(layout, hash_spec, column_keys, num_buckets, capacity):
    space = AddressSpace()
    column = None
    if layout.indirect:
        column = Column("base", DataType.for_key_bytes(layout.key_bytes),
                        column_keys)
        column.materialize(space)
    index = HashIndex(space, layout, num_buckets, hash_spec,
                      capacity=capacity, key_column=column)
    return space, index


def run_twin(builder, layout, hash_spec, column_keys, num_buckets, capacity,
             first, second):
    """Insert ``first`` one by one, then hand ``second`` to ``builder``;
    returns the exception type raised (or None) and the final image."""
    space, index = make_index(layout, hash_spec, column_keys, num_buckets,
                              capacity)
    try:
        insert_each(index, *first)
        builder(index, *second)
        error = None
    except Exception as exc:  # ValueError, IndexError, PlanError
        error = type(exc)
    return error, image(space, index)


@st.composite
def build_cases(draw):
    layout = draw(st.sampled_from(LAYOUTS))
    hash_spec = draw(st.sampled_from(HASHES))
    key_max = (1 << (8 * layout.key_bytes)) - 1
    # A small key pool forces duplicates and shared buckets.
    pool = draw(st.lists(st.integers(0, key_max), min_size=1, max_size=12))
    keys = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=60))
    if draw(st.booleans()):
        # The direct layouts' empty-bucket sentinel, or an unindexed key.
        at = draw(st.integers(0, len(keys)))
        keys.insert(at, layout.empty_sentinel if not layout.indirect
                    else key_max)
    rows = len(keys) + 4
    if layout.indirect:
        # The base column holds the keys in row order; payloads are rows,
        # occasionally out of range or pointing at a different key.
        column_keys = keys + [0] * (rows - len(keys))
        payloads = list(range(len(keys)))
        if keys and draw(st.booleans()):
            at = draw(st.integers(0, len(keys) - 1))
            payloads[at] = draw(st.sampled_from([rows, rows + 7, at + 1]))
    else:
        column_keys = None
        payload_max = (1 << (8 * layout.payload_bytes)) - 1
        payloads = draw(st.lists(st.integers(0, payload_max),
                                 min_size=len(keys), max_size=len(keys)))
    split = draw(st.integers(0, len(keys)))
    first = (keys[:split], payloads[:split])
    second = (keys[split:], payloads[split:])
    dtypes = [None, np.uint64, DataType.for_key_bytes(layout.key_bytes)
              .numpy_dtype]
    if max(keys, default=0) < 1 << 63:
        dtypes.append(np.int64)
    dtype = draw(st.sampled_from(dtypes))
    if dtype is not None:
        second = (np.asarray(second[0], dtype=dtype),
                  np.asarray(second[1], dtype=np.int64 if layout.indirect
                             else np.uint64))
    num_buckets = draw(st.sampled_from([1, 2, 8, 64]))
    # Sometimes too small, so the node heap runs out part-way.
    capacity = draw(st.integers(1, max(1, len(keys) + 1)))
    return (layout, hash_spec, column_keys, num_buckets, capacity,
            first, second)


@settings(max_examples=300, deadline=None)
@given(case=build_cases())
def test_build_matches_insert_loop(case):
    bulk = run_twin(BULK_BUILD, *case)
    reference = run_twin(insert_each, *case)
    assert bulk == reference


@pytest.mark.parametrize("keys, payloads", [([1, 2], [1]), ([], [3])])
def test_length_mismatch_raises_before_any_write(keys, payloads):
    space, index = make_index(KERNEL_LAYOUT, ALL_HASHES["robust32"], None,
                              8, 4)
    before = image(space, index)
    with pytest.raises(ValueError, match="equal length"):
        index.build(keys, payloads)
    assert image(space, index) == before


def test_heap_exhaustion_keeps_the_accepted_prefix():
    space, index = make_index(KERNEL_LAYOUT, kernel_hash(4), None, 2, 3)
    with pytest.raises(PlanError) as bulk_error:
        index.build(np.arange(1, 11), np.arange(10))
    twin_space, twin = make_index(KERNEL_LAYOUT, kernel_hash(4), None, 2, 3)
    with pytest.raises(PlanError) as loop_error:
        insert_each(twin, range(1, 11), range(10))
    assert type(bulk_error.value) is type(loop_error.value)
    assert str(bulk_error.value) == str(loop_error.value)
    assert image(space, index) == image(twin_space, twin)
    assert index.num_keys == 5  # two headers plus the three heap nodes


def test_build_leaves_memory_growable():
    space, index = make_index(WIDE_LAYOUT, ALL_HASHES["robust64"], None,
                              16, 64)
    index.build(np.arange(1, 40, dtype=np.uint64), np.arange(39))
    space.allocate("after", 4096)  # no live numpy view may pin the store


def test_materialize_is_the_per_value_image():
    values = np.array([0, 1, 0xFFFF_FFFF, 0x1234_5678, 7], dtype=np.uint32)
    space = AddressSpace()
    region = Column("c", DataType.U32, values).materialize(space)
    reference = AddressSpace()
    base = reference.allocate("column:c", len(values) * 4).base
    for row, value in enumerate(values):
        reference.memory.write(base + 4 * row, 4, int(value))
    assert bytes(space.memory._store) == bytes(reference.memory._store)
    assert region.size == 20
