"""The bucketed hash index, laid out byte-for-byte in simulated memory.

Structure (paper Section 2.2):

* a bucket array of *header nodes* — the first node of each bucket lives
  inline in the array, so a one-node bucket needs no pointer dereference
  beyond the bucket itself;
* an overflow node heap for collision chains, linked through each node's
  ``next`` pointer (NULL-terminated).

All reads/writes go through :class:`~repro.mem.PhysicalMemory`, so the
probe loop here is the functional *reference*: the baseline-core traces and
the Widx programs must reproduce its results exactly (tested
property-based in ``tests/``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvariantViolation, PlanError
from ..mem.layout import AddressSpace, Region
from ..mem.physmem import NULL_PTR
from .column import Column
from .hashfn import HashSpec
from .node import NodeLayout


def choose_num_buckets(num_keys: int, target_nodes_per_bucket: float = 1.0) -> int:
    """Smallest power-of-two bucket count giving <= the target chain depth.

    DBMSs "use a large number of buckets ... to reduce the number of nodes
    per bucket" (Section 2.1); a target of 1.0 mirrors that, while larger
    targets build the deliberately deep buckets used by the Figure 5 study.
    """
    if num_keys < 1:
        raise ValueError("need at least one key")
    if target_nodes_per_bucket <= 0:
        raise ValueError("target chain depth must be positive")
    want = max(1, round(num_keys / target_nodes_per_bucket))
    buckets = 1
    while buckets < want:
        buckets <<= 1
    return buckets


@dataclass
class IndexStats:
    """Occupancy statistics of a built index."""

    num_keys: int
    num_buckets: int
    used_buckets: int
    overflow_nodes: int
    max_chain: int

    @property
    def nodes_per_used_bucket(self) -> float:
        if self.used_buckets == 0:
            return 0.0
        return self.num_keys / self.used_buckets

    @property
    def load_factor(self) -> float:
        return self.num_keys / self.num_buckets


class HashIndex:
    """A hash index over (key, payload) pairs in simulated memory."""

    def __init__(self, space: AddressSpace, layout: NodeLayout,
                 num_buckets: int, hash_spec: HashSpec,
                 capacity: int, name: str = "index",
                 key_column: Optional[Column] = None) -> None:
        if num_buckets & (num_buckets - 1):
            raise ValueError("bucket count must be a power of two")
        if capacity < 1:
            raise ValueError("index capacity must be positive")
        if layout.indirect and key_column is None:
            raise PlanError("an indirect layout needs the indexed base column")
        if layout.indirect and key_column is not None:
            if key_column.dtype.nbytes != layout.key_bytes:
                raise PlanError(
                    f"layout expects {layout.key_bytes}B keys but column "
                    f"{key_column.name!r} is {key_column.dtype.nbytes}B")
        self.space = space
        self.memory = space.memory
        self.layout = layout
        self.num_buckets = num_buckets
        self.hash_spec = hash_spec
        self.name = name
        self.key_column = key_column
        self.buckets: Region = space.allocate(
            f"{name}:buckets", num_buckets * layout.stride, align=64)
        # Worst case every key overflows past the header node.
        self.nodes: Region = space.allocate(
            f"{name}:nodes", capacity * layout.stride, align=64)
        self._next_node = self.nodes.base
        self.num_keys = 0
        self._overflow_nodes = 0
        self._initialize_headers()

    # ------------------------------------------------------------------
    # Layout accessors
    # ------------------------------------------------------------------

    def bucket_addr(self, bucket: int) -> int:
        """Simulated address of a bucket's header node."""
        return self.buckets.base + (bucket << self.layout.shift)

    def bucket_of_key(self, key: int) -> int:
        """The bucket index the hash function maps a key to."""
        return self.hash_spec.bucket_of(key, self.num_buckets)

    def _read_slot(self, node_addr: int) -> int:
        """The key (direct) or row id (indirect) stored at a node."""
        layout = self.layout
        return self.memory.read(node_addr + layout.key_offset, layout.key_slot_bytes)

    def node_next(self, node_addr: int) -> int:
        """A node's next-chain pointer (NULL terminates)."""
        return self.memory.read_u64(node_addr + self.layout.next_offset)

    def node_payload(self, node_addr: int) -> int:
        """The payload a probe emits for this node."""
        layout = self.layout
        if layout.indirect:
            return self._read_slot(node_addr)  # payload is the row id
        return self.memory.read(node_addr + layout.payload_offset,
                                layout.payload_bytes)

    def key_address_for_row(self, row_id: int) -> int:
        """Address of the key in the base column (indirect layouts)."""
        if self.key_column is None:
            raise InvariantViolation(
                "key_address_for_row on a direct layout: no base key column")
        return self.key_column.address_of(row_id)

    def node_key(self, node_addr: int) -> int:
        """The key value a probe compares at this node."""
        slot = self._read_slot(node_addr)
        if not self.layout.indirect:
            return slot
        return self.memory.read(self.key_address_for_row(slot),
                                self.layout.key_bytes)

    def _header_empty(self, header_addr: int) -> bool:
        return self._read_slot(header_addr) == self.layout.empty_sentinel

    def _initialize_headers(self) -> None:
        layout = self.layout
        base = self.buckets.base
        self.memory.write_field(base + layout.key_offset, layout.key_slot_bytes,
                                self.num_buckets, layout.empty_sentinel,
                                stride=layout.stride)
        self.memory.write_field(base + layout.next_offset, 8, self.num_buckets,
                                NULL_PTR, stride=layout.stride)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def insert(self, key: int, payload: int) -> None:
        """Insert one entry.

        For direct layouts ``payload`` is the stored payload; for indirect
        layouts it is the row id into the base column (and ``key`` must be
        the value at that row — validated).
        """
        layout = self.layout
        if not layout.indirect and key == layout.empty_sentinel:
            raise ValueError("key collides with the empty-bucket sentinel")
        if layout.indirect:
            stored = self.memory.read(self.key_address_for_row(payload),
                                      layout.key_bytes)
            if stored != key:
                raise PlanError(
                    f"row {payload} holds key {stored}, not {key}")
        slot_value = payload if layout.indirect else key
        header = self.bucket_addr(self.bucket_of_key(key))
        if self._header_empty(header):
            self._write_node(header, slot_value,
                             payload if not layout.indirect else 0,
                             self.node_next(header))
        else:
            node = self._alloc_node()
            # Insert right after the header, preserving the header inline.
            self._write_node(node, slot_value,
                             payload if not layout.indirect else 0,
                             self.node_next(header))
            self.memory.write_u64(header + layout.next_offset, node)
            self._overflow_nodes += 1
        self.num_keys += 1

    def _alloc_node(self) -> int:
        addr = self._next_node
        if addr + self.layout.stride > self.nodes.end:
            raise PlanError(f"index {self.name!r} node heap exhausted")
        self._next_node += self.layout.stride
        return addr

    def _write_node(self, addr: int, slot_value: int, payload: int,
                    next_ptr: int) -> None:
        layout = self.layout
        self.memory.write(addr + layout.key_offset, layout.key_slot_bytes,
                          slot_value)
        if not layout.indirect:
            self.memory.write(addr + layout.payload_offset,
                              layout.payload_bytes, payload)
        self.memory.write_u64(addr + layout.next_offset, next_ptr)

    def build(self, keys: Sequence[int], payloads: Sequence[int]) -> None:
        """Bulk insert (Step 1 of the paper's Figure 1).

        The array twin of calling :meth:`insert` on each pair in order: the
        same memory image, node allocation order and counters.  Keys are
        grouped by bucket with a stable sort.  The first key of a bucket
        whose header is empty fills the header; every later key takes the
        next overflow node in insertion order, and a bucket's nodes are
        linked newest-first (the header points at the newest, each node at
        the one inserted before it).  The first entry :meth:`insert` would
        reject, and everything after it, goes through :meth:`insert`
        itself, so a failing build raises the same error from the same
        state.
        """
        if len(keys) != len(payloads):
            raise ValueError("keys and payloads must have equal length")
        done = 0
        key_array, payload_array = np.asarray(keys), np.asarray(payloads)
        # Python ints past int64 convert to float or object: no array path.
        if key_array.dtype.kind in "iu" and payload_array.dtype.kind in "iu":
            done = self._bulk_insert(
                key_array, payload_array,
                self._accepted_prefix(key_array, payload_array))
        for key, payload in zip(keys[done:], payloads[done:]):
            self.insert(int(key), int(payload))

    def _accepted_prefix(self, keys: np.ndarray, payloads: np.ndarray) -> int:
        """How many leading entries pass :meth:`insert`'s key checks."""
        layout = self.layout
        if layout.indirect:
            column = self.key_column
            if not column.is_materialized:
                return 0
            in_range = (payloads >= 0) & (payloads < len(column))
            stored = self.memory.read_field(column.region.base, layout.key_bytes,
                                            len(column), rows=payloads[in_range])
            # Compare as uint64 (mixed signedness would go through float),
            # after ruling out negative keys, which no stored key equals.
            rejected = ~in_range | (keys < 0)
            rejected[in_range] |= stored != keys[in_range].astype(np.uint64)
        else:
            rejected = keys == layout.empty_sentinel
        hits = np.flatnonzero(rejected)
        return int(hits[0]) if len(hits) else len(keys)

    def _bulk_insert(self, keys: np.ndarray, payloads: np.ndarray,
                     count: int) -> int:
        """Insert the first ``count`` entries (all past the key checks), up
        to the first that finds the node heap exhausted; returns how many
        went in.  Full-length temporaries are dropped early: a
        million-key build must not raise the run's peak memory."""
        if count == 0:
            return 0
        keys, payloads = keys[:count], payloads[:count]
        layout, memory, stride = self.layout, self.memory, self.layout.stride
        headers, num_buckets = self.buckets.base, self.num_buckets
        bucket = self.hash_spec.bucket_of_many(keys, num_buckets)
        order = np.argsort(bucket, kind="stable")
        bucket = bucket[order]
        # Sorted position -> first entry of its bucket (one past the end
        # counts as a head, so head[i + 1] marks a bucket's last entry).
        head = np.empty(count + 1, dtype=bool)
        head[0] = head[count] = True
        np.not_equal(bucket[1:], bucket[:-1], out=head[1:count])
        heads = np.flatnonzero(head[:count])
        touched = bucket[heads]
        fills = memory.read_field(headers + layout.key_offset,
                                  layout.key_slot_bytes, num_buckets,
                                  stride=stride, rows=touched) \
            == layout.empty_sentinel
        old_next = memory.read_field(headers + layout.next_offset, 8,
                                     num_buckets, stride=stride, rows=touched)
        spill = np.ones(count, dtype=bool)
        spill[heads[fills]] = False
        spilled = np.flatnonzero(spill)  # entries taking a node, sorted order
        rows = order[spilled]
        room = (self.nodes.end - self._next_node) // stride
        if len(rows) > room:
            return self._bulk_insert(keys, payloads,
                                     int(np.partition(rows, room)[room]))

        slots = payloads if layout.indirect else keys
        fill_rows = order[heads[fills]]
        del order
        memory.write_field(headers + layout.key_offset, layout.key_slot_bytes,
                           num_buckets, slots[fill_rows], stride=stride,
                           rows=touched[fills])
        if not layout.indirect:
            memory.write_field(headers + layout.payload_offset,
                               layout.payload_bytes, num_buckets,
                               payloads[fill_rows], stride=stride,
                               rows=touched[fills])
        del fill_rows, touched

        # Nodes go out in insertion order.  A bucket's spilled entries sit
        # together in sorted order, oldest first, so each links to the one
        # before it, except a bucket's first, which inherits the header's
        # old chain; the header then points at the bucket's newest node.
        by_row = np.argsort(rows)
        node_rows = rows[by_row]
        rank = np.empty_like(by_row)  # node of each spilled entry
        rank[by_row] = np.arange(len(by_row))
        del rows, by_row
        addrs = rank.astype(np.uint64)
        addrs *= np.uint64(stride)
        addrs += np.uint64(self._next_node)
        newest = head[spilled + 1]
        memory.write_field(headers + layout.next_offset, 8, num_buckets,
                           addrs[newest], stride=stride,
                           rows=bucket[spilled[newest]])
        del bucket
        unchained = np.flatnonzero(head[spilled] | ~spill[spilled - 1])
        links = np.empty(len(spilled), dtype=np.uint64)
        links[rank[1:]] = addrs[:-1]
        links[rank[unchained]] = old_next[
            np.searchsorted(heads, spilled[unchained], side="right") - 1]
        del addrs

        base = self._next_node
        memory.write_field(base + layout.key_offset, layout.key_slot_bytes,
                           len(links), slots[node_rows], stride=stride)
        if not layout.indirect:
            memory.write_field(base + layout.payload_offset,
                               layout.payload_bytes, len(links),
                               payloads[node_rows], stride=stride)
        memory.write_field(base + layout.next_offset, 8, len(links), links,
                           stride=stride)
        self._next_node += len(links) * stride
        self._overflow_nodes += len(links)
        self.num_keys += count
        return count

    # ------------------------------------------------------------------
    # Probe (the functional reference for Listing 1 / Step 2 of Figure 1)
    # ------------------------------------------------------------------

    def walk_chain(self, key: int) -> Iterator[int]:
        """Yield the node addresses a probe for ``key`` visits, in order."""
        header = self.bucket_addr(self.bucket_of_key(key))
        if self._header_empty(header):
            return
        node = header
        while node != NULL_PTR:
            yield node
            node = self.node_next(node)

    def probe(self, key: int) -> List[int]:
        """All payloads whose key matches (the reference result)."""
        matches = []
        for node in self.walk_chain(key):
            if self.node_key(node) == key:
                matches.append(self.node_payload(node))
        return matches

    def probe_count_nodes(self, key: int) -> Tuple[List[int], int]:
        """Like :meth:`probe` but also returns the number of nodes visited."""
        matches, visited = [], 0
        for node in self.walk_chain(key):
            visited += 1
            if self.node_key(node) == key:
                matches.append(self.node_payload(node))
        return matches, visited

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def chain_length(self, bucket: int) -> int:
        """Number of nodes in one bucket's chain (0 if empty)."""
        header = self.bucket_addr(bucket)
        if self._header_empty(header):
            return 0
        length, node = 0, header
        while node != NULL_PTR:
            length += 1
            node = self.node_next(node)
        return length

    def stats(self) -> IndexStats:
        """Occupancy statistics (chains, overflow, load factor)."""
        used = 0
        max_chain = 0
        for bucket in range(self.num_buckets):
            length = self.chain_length(bucket)
            if length:
                used += 1
                if length > max_chain:
                    max_chain = length
        return IndexStats(
            num_keys=self.num_keys,
            num_buckets=self.num_buckets,
            used_buckets=used,
            overflow_nodes=self._overflow_nodes,
            max_chain=max_chain,
        )

    @property
    def footprint_bytes(self) -> int:
        """Bytes the index actually touches (buckets + used overflow nodes)."""
        return self.buckets.size + (self._next_node - self.nodes.base)
