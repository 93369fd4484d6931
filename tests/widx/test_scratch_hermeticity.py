"""Every offload driver leaves its workload's address space as it found it.

Offloads stage inputs and collect outputs in scratch regions allocated on
the index's :class:`~repro.mem.layout.AddressSpace`.  They must be
released (LIFO, rewinding the break) whether the run completes or
raises: a leaked region shifts every later allocation on that workload,
so the next measurement would see a different address layout.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cmp import run_multicore_offload
from repro.db.btree import BPlusTree
from repro.db.column import Column
from repro.db.trie import MlpTrie
from repro.db.types import DataType
from repro.db.wormhole import WormholeIndex
from repro.errors import SimulationHang
from repro.sim.engine import Engine
from repro.widx.machine import WidxMachine
from repro.widx.offload import (offload_batched_tree, offload_probe,
                                offload_tree_ranges, offload_tree_search,
                                offload_trie_ranges, offload_trie_search,
                                offload_wormhole_ranges,
                                offload_wormhole_search)
from tests.conftest import build_direct_index, materialized_probe_column


def ordered_workload(space, cls):
    rng = random.Random(7)
    keys = rng.sample(range(1, 2**31), 120)
    index = cls(space, keys, [rng.randrange(1, 2**31) for _ in keys])
    # 64 four-byte keys (and 80 in the hash workload) leave the break
    # 64-byte aligned: a released region rewinds it to the region's base,
    # which is then exactly where it stood before the offload.
    column = Column("probes", DataType.U32,
                    np.asarray(keys[:64], dtype=np.uint32))
    column.materialize(space)
    ordered = sorted(keys)
    ranges = [(ordered[i], ordered[i + 5]) for i in range(0, 100, 10)]
    return index, column, ranges


def hash_workload(space):
    index, keys, _truth = build_direct_index(space, num_keys=600)
    return index, materialized_probe_column(space, keys, count=80)


def run_ordered(cls, offload, use_ranges):
    def run(space):
        index, column, ranges = ordered_workload(space, cls)
        return lambda: offload(index, ranges if use_ranges else column)
    return run


def run_hash(offload):
    def run(space):
        index, column = hash_workload(space)
        return lambda: offload(index, column)
    return run


#: Driver name -> (builds the workload and returns the offload call,
#: the class whose ``run`` the failing case makes raise).
DRIVERS = {
    "probe": (run_hash(offload_probe), WidxMachine),
    "multicore": (run_hash(lambda index, column: run_multicore_offload(
        index, column, threads=2)), Engine),
    "tree_search": (run_ordered(BPlusTree, offload_tree_search, False),
                    WidxMachine),
    "tree_ranges": (run_ordered(BPlusTree, offload_tree_ranges, True),
                    WidxMachine),
    "trie_search": (run_ordered(MlpTrie, offload_trie_search, False),
                    WidxMachine),
    "trie_ranges": (run_ordered(MlpTrie, offload_trie_ranges, True),
                    WidxMachine),
    "wormhole_search": (run_ordered(WormholeIndex, offload_wormhole_search,
                                    False), WidxMachine),
    "wormhole_ranges": (run_ordered(WormholeIndex, offload_wormhole_ranges,
                                    True), WidxMachine),
    "batched_tree": (run_ordered(BPlusTree, offload_batched_tree, False),
                     WidxMachine),
}


def hang(*_args, **_kwargs):
    raise SimulationHang("injected hang")


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("fails", [False, True], ids=["ok", "raises"])
def test_offload_releases_its_scratch_regions(space, monkeypatch, driver,
                                              fails):
    build, runner = DRIVERS[driver]
    offload = build(space)
    before = (space.memory.allocated_bytes, space.regions())
    if fails:
        monkeypatch.setattr(runner, "run", hang)
        with pytest.raises(SimulationHang):
            offload()
    else:
        assert offload().validated is True
    assert (space.memory.allocated_bytes, space.regions()) == before
