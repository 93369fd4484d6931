"""Expanding hash-index probes into micro-op traces.

The generated trace mirrors Listing 1 compiled for a conventional core:

* load the probe key (keys stream through the L1 — many per block),
* hash it (each :class:`~repro.db.hashfn.HashStep` costs *two* host ALU ops,
  shift then combine — the host ISA has no fused shift-ops; Widx's fused
  XOR-SHF/ADD-SHF instructions halve this, one of its advantages),
* compute the bucket address (mask + shift + add),
* walk the chain: per node, load the key slot, (for indirect layouts:
  compute the base-column address and load the key), compare, branch, load
  the next pointer, branch,
* on the final node, the loop-exit branch is data-dependent and mispredicts.

Addresses are real simulated-memory addresses read from the live index, so
running the trace through the memory hierarchy reproduces the true
block-reuse and locality behaviour.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from ..db.column import Column
from ..db.hashtable import HashIndex
from .uops import Uop, UopKind

#: Host ALU ops per hash mixing step (shift + combine; no fusion).
HOST_OPS_PER_HASH_STEP = 2

_ALU = UopKind.ALU
_LOAD = UopKind.LOAD
_BRANCH = UopKind.BRANCH


def address_alus(hash_spec) -> int:
    """Serial host ALU ops from a probe value to its bucket address: the
    hash steps, then mask, scale (shift) and base add."""
    return len(hash_spec.steps) * HOST_OPS_PER_HASH_STEP + 3


class ProbeTraceGenerator:
    """Generates per-probe uop traces against a live :class:`HashIndex`."""

    def __init__(self, index: HashIndex, probe_keys: Column,
                 out_base: int = 0,
                 model_mispredicts: bool = True) -> None:
        if not probe_keys.is_materialized:
            raise ValueError("probe key column must be materialized in "
                             "simulated memory before tracing")
        self.index = index
        self.probe_keys = probe_keys
        self.out_base = out_base
        self.model_mispredicts = model_mispredicts
        # The loop-exit branch is strongly biased: a bimodal predictor
        # learns the most common chain length and only mispredicts probes
        # whose chain deviates from it.
        self._typical_chain = max(1, round(index.num_keys / max(1, index.num_buckets)))
        self._address_alus = address_alus(index.hash_spec)

    def _exit_mispredicts(self, chain_length: int) -> bool:
        if not self.model_mispredicts:
            return False
        return chain_length != self._typical_chain

    def probe_uops(self, row: int, stream_base: int) -> List[Uop]:
        """The uop trace for probing key at ``row``; deps are absolute
        stream positions starting at ``stream_base``."""
        index = self.index
        layout = index.layout
        indirect = layout.indirect
        key = int(self.probe_keys.values[row])
        key_ready = stream_base
        uops = [Uop(_LOAD, self.probe_keys.address_of(row))]
        append = uops.append

        # Hash, then the bucket address (mask, scale, base add): a serial
        # ALU chain seeded by the key load.
        addr_ready = key_ready + self._address_alus
        for prev in range(key_ready, addr_ready):
            append(Uop(_ALU, 0, (prev,)))
        here = addr_ready + 1   # stream position of the next uop

        # Walk the actual chain.
        chain = list(index.walk_chain(key))
        last = len(chain) - 1
        exit_mispredicts = self._exit_mispredicts(len(chain))
        prev_node_dep = addr_ready
        for node_index, node_addr in enumerate(chain):
            append(Uop(_LOAD, node_addr + layout.key_offset,
                       (prev_node_dep,)))
            cmp_dep = here
            here += 1
            if indirect:
                # Address arithmetic into the base column, then the key load.
                append(Uop(_ALU, 0, (cmp_dep,)))
                row_id = index.node_payload(node_addr)
                append(Uop(_LOAD, index.key_address_for_row(row_id),
                           (here,)))
                cmp_dep = here + 1
                here += 2
            append(Uop(_ALU, 0, (cmp_dep, key_ready)))  # compare
            append(Uop(_BRANCH, 0, (here,)))
            compare = here
            here += 2
            if index.node_key(node_addr) == key and not indirect:
                # Emit: read the payload (same block as the key slot).
                append(Uop(_LOAD, node_addr + layout.payload_offset,
                           (compare,)))
                here += 1
            append(Uop(_LOAD, node_addr + layout.next_offset,
                       (prev_node_dep,)))
            append(Uop(_BRANCH, 0, (here,), 1,
                       node_index == last and exit_mispredicts))
            prev_node_dep = here
            here += 2
        if not chain:
            # Empty bucket: the header's key slot is still read and compared
            # against the sentinel before the walk loop can exit.
            header = index.bucket_addr(index.bucket_of_key(key))
            append(Uop(_LOAD, header + layout.key_offset, (addr_ready,)))
            append(Uop(_ALU, 0, (here,)))
            append(Uop(_BRANCH, 0, (here + 1,), 1, exit_mispredicts))
            here += 3
        # Loop bookkeeping for the key iterator (i++ / bounds test).
        append(Uop(_ALU))
        append(Uop(_BRANCH, 0, (here,)))
        return uops

    def stream(self, rows: Optional[Sequence[int]] = None) -> Iterator[List[Uop]]:
        """Yield per-probe traces with stream-consistent dependency indices."""
        if rows is None:
            rows = range(len(self.probe_keys.values))
        base = 0
        for row in rows:
            uops = self.probe_uops(row, base)
            yield uops
            base += len(uops)
