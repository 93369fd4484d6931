"""Baseline-core traces and timing for the ordered-index zoo.

Each generator expands live-structure traversals into uop traces whose
dependency shapes are the experiment:

* :class:`TreeTraceGenerator` — the B+-tree descent is a *dependent* load
  chain (each node address comes out of the previous node), exactly the
  pattern the paper's walkers target.
* :class:`TrieTraceGenerator` — the hashed trie's per-level bucket
  addresses are computed straight from the key, so every level's fetch
  depends only on the key load.  An OoO window overlaps them; the
  in-order core serializes them anyway.  This is the honest baseline for
  the Cuckoo-Trie counter-argument.
* :class:`WormholeTraceGenerator` — the MetaTrieHash binary search is a
  short dependent chain (the next depth to probe is decided by the
  current probe's outcome), followed by a bounded leaf walk.
* :class:`BatchedTreeTraceGenerator` — level-wise batched descent over
  the same tree: per level each distinct node is fetched once, however
  many of the batch's probes route through it, so repeat visits become
  register/L1 reuse instead of fresh misses.

Addresses are real simulated-memory addresses read from the live
structures, so running a trace through the hierarchy reproduces true
block reuse — the same property :mod:`repro.cpu.trace` relies on.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from ..config import SystemConfig, DEFAULT_CONFIG
from ..db import btree as _btree
from ..db import trie as _trie
from ..db import wormhole as _wormhole
from ..db.btree import BPlusTree
from ..db.column import Column
from ..db.trie import MlpTrie, probe_value, tag_value
from ..db.wormhole import WormholeIndex
from ..mem.hierarchy import MemoryHierarchy
from ..mem.physmem import NULL_PTR
from .timing import CoreTimingResult, make_core, run_probe_loop
from .trace import address_alus
from .uops import Uop, UopKind

_ALU = UopKind.ALU
_LOAD = UopKind.LOAD
_BRANCH = UopKind.BRANCH


def warm_ordered_index(memory: MemoryHierarchy, index) -> None:
    """Functionally install an ordered structure's working set in the LLC."""
    if isinstance(index, BPlusTree):
        memory.warm_range(index.region.base, index.footprint_bytes)
    elif isinstance(index, MlpTrie):
        memory.warm_range(index.buckets.base, index.buckets.size)
        if index.overflow is not None:
            memory.warm_range(index.overflow.base, index.overflow.size)
    elif isinstance(index, WormholeIndex):
        memory.warm_range(index.leaves.base, index.leaves.size)
        memory.warm_range(index.meta.base, index.meta.size)
        if index.overflow is not None:
            memory.warm_range(index.overflow.base, index.overflow.size)
    else:
        raise TypeError(f"not an ordered index: {type(index).__name__}")


class _OrderedTraceGenerator:
    """Shared stream plumbing for the per-structure generators."""

    #: Probes consumed per yielded trace (batched descent overrides).
    tuples_per_trace = 1

    def __init__(self, probe_keys: Column) -> None:
        if not probe_keys.is_materialized:
            raise ValueError("probe key column must be materialized in "
                             "simulated memory before tracing")
        self.probe_keys = probe_keys

    def probe_uops(self, row: int, stream_base: int) -> List[Uop]:
        """The uop trace for one probe, with deps offset by ``stream_base``."""
        raise NotImplementedError

    def stream(self, rows: Optional[Sequence[int]] = None) -> Iterator[List[Uop]]:
        """Yield per-trace uop lists with stream-consistent dep indices."""
        if rows is None:
            rows = range(len(self.probe_keys.values))
        base = 0
        for row in rows:
            uops = self.probe_uops(row, base)
            yield uops
            base += len(uops)


class TreeTraceGenerator(_OrderedTraceGenerator):
    """Per-probe B+-tree descents: the dependent-load chain baseline."""

    def __init__(self, tree: BPlusTree, probe_keys: Column,
                 model_mispredicts: bool = True) -> None:
        super().__init__(probe_keys)
        self.tree = tree
        self.model_mispredicts = model_mispredicts

    def probe_uops(self, row: int, stream_base: int) -> List[Uop]:
        """One root-to-leaf descent: a load per level, each dependent
        on its parent's load — the pointer chase an OoO window can only
        overlap *across* probes, never within one."""
        tree = self.tree
        node_key = tree.node_key
        key = int(self.probe_keys.values[row])
        uops = [Uop(_LOAD, self.probe_keys.address_of(row))]
        append = uops.append
        key_ready = stream_base
        here = stream_base + 1   # stream position of the next uop

        node_dep = key_ready
        for node in tree.descend_path(key):
            # Meta word: leaf test.  The node address came from the parent.
            append(Uop(_LOAD, node, (node_dep,)))
            meta_ready = here
            append(Uop(_ALU, 0, (meta_ready,)))
            append(Uop(_BRANCH, 0, (here + 1,)))
            here += 3
            keys = node + _btree._KEYS_OFFSET
            if tree.node_is_leaf(node):
                matched = None
                for slot in range(_btree.FANOUT):
                    append(Uop(_LOAD, keys + 4 * slot, (meta_ready,)))
                    append(Uop(_ALU, 0, (here, key_ready)))
                    append(Uop(_BRANCH, 0, (here + 1,)))
                    here += 3
                    if node_key(node, slot) == key:
                        matched = slot
                        break
                if matched is not None:
                    append(Uop(_LOAD,
                               node + _btree._PAYLOADS_OFFSET + 4 * matched,
                               (meta_ready,)))
                    here += 1
                elif self.model_mispredicts:
                    # The miss exit deviates from the common found path.
                    append(Uop(_BRANCH, 0, (meta_ready,), 1, True))
                    here += 1
            else:
                slot = 0
                while slot < _btree.FANOUT and key > node_key(node, slot):
                    append(Uop(_LOAD, keys + 4 * slot, (meta_ready,)))
                    append(Uop(_ALU, 0, (here, key_ready)))
                    append(Uop(_BRANCH, 0, (here + 1,)))
                    here += 3
                    slot += 1
                if slot < _btree.FANOUT:
                    append(Uop(_LOAD, keys + 4 * slot, (meta_ready,)))
                    append(Uop(_ALU, 0, (here, key_ready)))
                    append(Uop(_BRANCH, 0, (here + 1,)))
                    here += 3
                # Child pointer: the dependency that serializes the descent.
                append(Uop(_LOAD, node + _btree._CHILDREN_OFFSET + 8 * slot,
                           (meta_ready,)))
                node_dep = here
                here += 1
        # Probe-loop bookkeeping.
        append(Uop(_ALU))
        append(Uop(_BRANCH, 0, (here,)))
        return uops


class TrieTraceGenerator(_OrderedTraceGenerator):
    """Per-probe hashed-trie lookups: independent per-level fetches."""

    def __init__(self, trie: MlpTrie, probe_keys: Column,
                 model_mispredicts: bool = True) -> None:
        super().__init__(probe_keys)
        self.trie = trie
        self.model_mispredicts = model_mispredicts
        self._typical_depth = max(1, round(trie.mean_depth))
        self._hash_alus = address_alus(trie.hash_spec)

    def probe_uops(self, row: int, stream_base: int) -> List[Uop]:
        """One MLP-trie lookup: every candidate bucket address depends
        only on the key load, so the level fetches issue in parallel."""
        trie = self.trie
        slot_tag = trie.slot_tag
        hash_alus = self._hash_alus
        key = int(self.probe_keys.values[row])
        uops = [Uop(_LOAD, self.probe_keys.address_of(row))]
        append = uops.append
        key_ready = stream_base
        here = stream_base + 1   # stream position of the next uop

        hit_depth = None
        for depth in range(1, _trie.MAX_DEPTH + 1):
            # Probe value, hash and bucket address are functions of the
            # key alone: the whole address chain for this depth depends
            # only on the key load, NOT on any other depth — the MLP the
            # layout exists to expose.
            append(Uop(_ALU, 0, (key_ready,)))  # shift
            append(Uop(_ALU, 0, (here,)))       # + depth tag
            # Hash, then mask, scale and base add: a serial chain.
            for prev in range(here + 1, here + 1 + hash_alus):
                append(Uop(_ALU, 0, (prev,)))
            here += 2 + hash_alus
            addr_ready = here - 1

            expect = tag_value(key, depth)
            block_dep = addr_ready
            found = False
            for block in trie.chain_blocks(trie.bucket_addr(key, depth)):
                for index in range(_trie.SLOTS_PER_BUCKET):
                    slot = block + _trie._SLOT_BASE + index * _trie.SLOT_BYTES
                    append(Uop(_LOAD, slot + _trie._TAG_OFFSET, (block_dep,)))
                    append(Uop(_ALU, 0, (here, key_ready)))
                    append(Uop(_BRANCH, 0, (here + 1,)))
                    here += 3
                    if slot_tag(slot) == expect:
                        append(Uop(_LOAD, slot + _trie._PAYLOAD_OFFSET,
                                   (block_dep,)))
                        here += 1
                        found = True
                        break
                if found:
                    break
                # Overflow pointer: the intra-bucket chain IS dependent.
                append(Uop(_LOAD, block + _trie._OVERFLOW_OFFSET,
                           (block_dep,)))
                block_dep = here
                append(Uop(_BRANCH, 0, (block_dep,)))
                here += 2
            if found:
                hit_depth = depth
                break
        mispredict = (self.model_mispredicts
                      and (hit_depth or _trie.MAX_DEPTH) != self._typical_depth)
        append(Uop(_ALU))
        append(Uop(_BRANCH, 0, (here,), 1, mispredict))
        return uops


class WormholeTraceGenerator(_OrderedTraceGenerator):
    """Per-probe wormhole lookups: binary search then a bounded walk."""

    def __init__(self, index: WormholeIndex, probe_keys: Column,
                 model_mispredicts: bool = True) -> None:
        super().__init__(probe_keys)
        self.index = index
        self.model_mispredicts = model_mispredicts
        self._hash_alus = address_alus(index.hash_spec)

    def probe_uops(self, row: int, stream_base: int) -> List[Uop]:
        """One wormhole lookup: binary search over prefix depths in the
        meta hash, then a single leaf scan."""
        wh = self.index
        read_u64 = wh.memory.read_u64
        leaf_key = wh.leaf_key
        hash_alus = self._hash_alus
        key = int(self.probe_keys.values[row])
        uops = [Uop(_LOAD, self.probe_keys.address_of(row))]
        append = uops.append
        key_ready = stream_base
        here = stream_base + 1   # stream position of the next uop

        # Binary search over prefix depths.  Unlike the trie, the NEXT
        # depth to probe is decided by the CURRENT probe's outcome, so
        # each probe's address chain carries a dependency on the previous
        # probe — a short dependent chain (log depths), traded for the
        # tree's tall one.
        lo, hi = 0, _wormhole.MAX_DEPTH
        best = wh.first_leaf
        outcome_dep = key_ready
        while lo < hi:
            mid = (lo + hi + 1) // 2
            append(Uop(_ALU, 0, (key_ready, outcome_dep)))
            append(Uop(_ALU, 0, (here,)))
            # Hash, then mask, scale and base add: a serial chain.
            for prev in range(here + 1, here + 1 + hash_alus):
                append(Uop(_ALU, 0, (prev,)))
            here += 2 + hash_alus

            value = probe_value(key, mid)
            found = None
            block_dep = here - 1
            block = wh.meta_bucket_addr(value)
            while block != NULL_PTR and found is None:
                hit = False
                for index in range(_wormhole.META_SLOTS_PER_BUCKET):
                    slot = (block + _wormhole._META_SLOT_BASE
                            + index * _wormhole.META_SLOT_BYTES)
                    append(Uop(_LOAD, slot + _wormhole._META_TAG_OFFSET,
                               (block_dep,)))
                    append(Uop(_ALU, 0, (here, key_ready)))
                    append(Uop(_BRANCH, 0, (here + 1,)))
                    here += 3
                    if read_u64(slot + _wormhole._META_TAG_OFFSET) == value:
                        append(Uop(_LOAD, slot + _wormhole._META_LEAF_OFFSET,
                                   (block_dep,)))
                        here += 1
                        found = read_u64(slot + _wormhole._META_LEAF_OFFSET)
                        hit = True
                        break
                if hit:
                    break
                append(Uop(_LOAD, block + _wormhole._META_OVERFLOW_OFFSET,
                           (block_dep,)))
                block_dep = here
                append(Uop(_BRANCH, 0, (block_dep,)))
                here += 2
                block = read_u64(block + _wormhole._META_OVERFLOW_OFFSET)
            outcome_dep = here - 1
            if found is None:
                hi = mid - 1
            else:
                best = found
                lo = mid

        # Forward leaf walk: anchors are read through a dependent chain.
        leaf = best
        leaf_dep = outcome_dep
        while True:
            append(Uop(_LOAD, leaf + _wormhole._NEXT_LEAF_OFFSET,
                       (leaf_dep,)))
            next_ready = here
            here += 1
            nxt = wh.next_leaf(leaf)
            if nxt == NULL_PTR:
                append(Uop(_BRANCH, 0, (next_ready,)))
                here += 1
                break
            append(Uop(_LOAD, nxt + _wormhole._KEYS_OFFSET, (next_ready,)))
            append(Uop(_ALU, 0, (here, key_ready)))
            append(Uop(_BRANCH, 0, (here + 1,)))
            here += 3
            if leaf_key(nxt, 0) > key:
                break
            leaf = nxt
            leaf_dep = next_ready

        # Final leaf: scan slots for the key.
        matched = None
        keys = leaf + _wormhole._KEYS_OFFSET
        for slot in range(_wormhole.FANOUT):
            append(Uop(_LOAD, keys + 4 * slot, (leaf_dep,)))
            append(Uop(_ALU, 0, (here, key_ready)))
            append(Uop(_BRANCH, 0, (here + 1,)))
            here += 3
            if leaf_key(leaf, slot) == key:
                matched = slot
                break
        if matched is not None:
            append(Uop(_LOAD, leaf + _wormhole._PAYLOADS_OFFSET + 4 * matched,
                       (leaf_dep,)))
            here += 1
        elif self.model_mispredicts:
            append(Uop(_BRANCH, 0, (leaf_dep,), 1, True))
            here += 1
        append(Uop(_ALU))
        append(Uop(_BRANCH, 0, (here,)))
        return uops


class BatchedTreeTraceGenerator(_OrderedTraceGenerator):
    """Level-wise batched descents: each trace consumes ``batch`` probes."""

    def __init__(self, tree: BPlusTree, probe_keys: Column,
                 batch: int = 4, sort_batches: bool = True) -> None:
        super().__init__(probe_keys)
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.tree = tree
        self.batch = batch
        self.sort_batches = sort_batches
        self.tuples_per_trace = batch

    def stream(self, rows: Optional[Sequence[int]] = None) -> Iterator[List[Uop]]:
        """Yield one trace per whole batch (a trailing partial batch is
        dropped, mirroring the serve layer's fixed-size batches)."""
        if rows is None:
            rows = range(len(self.probe_keys.values))
        rows = list(rows)
        base = 0
        for start in range(0, len(rows) - self.batch + 1, self.batch):
            uops = self.batch_uops(rows[start:start + self.batch], base)
            yield uops
            base += len(uops)

    def batch_uops(self, rows: Sequence[int], stream_base: int) -> List[Uop]:
        """One level-wise batched descent: each distinct node on the
        batch's frontier is loaded once per level and later members of
        the group reuse the loaded block."""
        tree = self.tree
        node_key = tree.node_key
        keys = [int(self.probe_keys.values[row]) for row in rows]
        uops = [Uop(_LOAD, self.probe_keys.address_of(row)) for row in rows]
        append = uops.append
        # Probe slot i's key load sits at stream position stream_base + i.
        key_ready = range(stream_base, stream_base + len(rows))
        here = stream_base + len(rows)   # stream position of the next uop
        order = sorted(range(len(keys)), key=keys.__getitem__) \
            if self.sort_batches else list(range(len(keys)))

        # frontier: probe slot -> (node, position of the parent's load).
        frontier = [(i, tree.root, key_ready[i]) for i in order]
        while frontier:
            groups: Dict[int, List] = {}
            for i, node, dep in frontier:
                groups.setdefault(node, []).append((i, dep))
            next_frontier = []
            for node, members in groups.items():
                # One fetch per distinct node per level — the batched
                # amortization.  Later members reuse the loaded block.
                append(Uop(_LOAD, node, (members[0][1],)))
                node_ready = here
                append(Uop(_ALU, 0, (node_ready,)))
                append(Uop(_BRANCH, 0, (here + 1,)))
                here += 3
                if tree.node_is_leaf(node):
                    for i, _dep in members:
                        for slot in range(_btree.FANOUT):
                            append(Uop(_ALU, 0, (node_ready, key_ready[i])))
                            append(Uop(_BRANCH, 0, (here,)))
                            here += 2
                            if node_key(node, slot) == keys[i]:
                                append(Uop(_LOAD,
                                           (node + _btree._PAYLOADS_OFFSET
                                            + 4 * slot),
                                           (node_ready,)))
                                here += 1
                                break
                else:
                    for i, _dep in members:
                        slot = 0
                        while (slot < _btree.FANOUT
                               and keys[i] > node_key(node, slot)):
                            append(Uop(_ALU, 0, (node_ready, key_ready[i])))
                            append(Uop(_BRANCH, 0, (here,)))
                            here += 2
                            slot += 1
                        if slot < _btree.FANOUT:
                            append(Uop(_ALU, 0, (node_ready, key_ready[i])))
                            append(Uop(_BRANCH, 0, (here,)))
                            here += 2
                        child = tree.node_child(node, slot)
                        if child == NULL_PTR:
                            child = tree._last_real_child(node)
                        next_frontier.append((i, child, node_ready))
            frontier = next_frontier
        append(Uop(_ALU))
        append(Uop(_BRANCH, 0, (here,)))
        return uops


def make_ordered_generator(index_class: str, index, probe_keys: Column, *,
                           batch: int = 4) -> _OrderedTraceGenerator:
    """The trace generator matching an ordered workload class."""
    if index_class == "btree":
        return TreeTraceGenerator(index, probe_keys)
    if index_class == "trie":
        return TrieTraceGenerator(index, probe_keys)
    if index_class == "wormhole":
        return WormholeTraceGenerator(index, probe_keys)
    if index_class == "batched":
        return BatchedTreeTraceGenerator(index, probe_keys, batch=batch)
    raise ValueError(f"unknown ordered index class {index_class!r}")


def measure_ordered_indexing(index, probe_keys: Column, *,
                             index_class: str,
                             core: str = "ooo",
                             config: SystemConfig = DEFAULT_CONFIG,
                             warmup_probes: int = 64,
                             measure_probes: Optional[int] = None,
                             batch: int = 4,
                             batch_size: int = 128,
                             warm_index: bool = True) -> CoreTimingResult:
    """Run an ordered-index probe loop on a baseline core model.

    Mirrors :func:`repro.cpu.timing.measure_indexing`.
    ``warmup_probes``/``measure_probes`` count probes (tuples), not
    traces: for the batched class they are rounded down to whole batches.
    """
    memory = MemoryHierarchy(config)
    if warm_index:
        warm_ordered_index(memory, index)
    model = make_core(core, config, memory)

    generator = make_ordered_generator(index_class, index, probe_keys,
                                       batch=batch)
    per_trace = generator.tuples_per_trace
    total_rows = len(probe_keys.values)
    limit = total_rows if measure_probes is None else min(
        total_rows, warmup_probes + measure_probes)
    rows = range((limit // per_trace) * per_trace)
    warmup_traces = warmup_probes // per_trace
    if len(rows) // per_trace <= warmup_traces:
        raise ValueError(
            f"need more than {warmup_probes} probes to measure after warm-up")
    return run_probe_loop(model, memory, core, generator.stream(rows),
                          warmup_traces=warmup_traces, per_trace=per_trace,
                          batch_size=max(1, batch_size // per_trace))
