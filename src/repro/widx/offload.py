"""High-level Widx offload driver.

``offload_probe`` is the library's headline entry point: given a built
:class:`~repro.db.HashIndex` and a materialized probe-key column, it
generates the three Widx programs for the index's schema, configures a
:class:`WidxMachine`, runs the bulk probe to completion, and validates the
emitted matches against the functional reference — the paper's atomic
all-or-nothing offload, with the host core idle throughout.

Every offload runs the same sequence (Figure 3, Section 4.3), stated
once in :func:`run_offload`; an :class:`OffloadAdapter` per traversal
supplies only its input checks, functional reference, programs, warm
regions and unit registers.  Each ``offload_*`` function runs one adapter.

Widx offloads always run on the discrete-event engine, even under the
harness's ``--bulk`` flag: the walkers *share* the MSHRs, cache ports and
(in shared mode) the dispatcher queue, so every probe's timing depends on
its neighbours'.  Only the serving sweep (:mod:`repro.serve.bulk`) has
an uncontended schedule to vectorize.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig, DEFAULT_CONFIG
from ..cpu.timing import warm_hash_index
from ..db.btree import BPlusTree, KEY_PAD
from ..db.column import Column
from ..db.hashtable import HashIndex
from ..db.trie import MlpTrie
from ..db.wormhole import WormholeIndex
from ..errors import MemoryError_, SimulationHang, WidxFault
from ..mem.hierarchy import MemoryHierarchy
from ..obs import StatsRegistry
from .machine import UnitFault, WidxMachine, WidxRunResult
from .programs import (GeneratedProgram, batched_tree_walker_program,
                       coupled_walker_program, dispatcher_program,
                       key_dispatcher_program, producer_program,
                       range_dispatcher_program, tree_dispatcher_program,
                       tree_range_walker_program, tree_walker_program,
                       trie_range_dispatcher_program,
                       trie_range_walker_program, trie_walker_program,
                       walker_program, wormhole_range_walker_program,
                       wormhole_walker_program)

_offload_counter = itertools.count()

#: A unit's configuration-register writes: (unit name, {register: value}).
UnitRegisters = Tuple[str, Dict[int, int]]


def _hierarchy_for(config: SystemConfig):
    """The memory path matching the configured Widx placement."""
    if config.widx.placement == "llc":
        from ..mem.llcside import LlcSideMemory
        return LlcSideMemory(config)
    if config.widx.placement == "pim":
        from ..mem.pimside import PimBankMemory
        return PimBankMemory(config)
    return MemoryHierarchy(config)


@dataclass
class OffloadOutcome:
    """Result of one accelerated bulk-probe operation."""

    run: WidxRunResult
    payloads: List[int] = field(default_factory=list)
    validated: Optional[bool] = None
    memory: Optional[MemoryHierarchy] = None
    programs: Dict[str, GeneratedProgram] = field(default_factory=dict)
    fell_back: bool = False             # aborted and re-ran on the host
    abort_cycles: float = 0.0           # Widx cycles wasted before abort
    stats: Optional[Dict[str, Any]] = None  # registry snapshot (to_dict)

    @property
    def cycles_per_tuple(self) -> float:
        return self.run.cycles_per_tuple

    @property
    def matches(self) -> int:
        return self.run.matches


# ----------------------------------------------------------------------
# Adapters: what each traversal supplies
# ----------------------------------------------------------------------

def _named(program: GeneratedProgram, **values: int) -> Dict[int, int]:
    """Map ``program``'s configuration-register names to ``values``."""
    regs = program.config_registers
    return {regs[name]: value for name, value in values.items()}


def _split(config: SystemConfig, total: int) -> List[Tuple[str, int, int]]:
    """``(unit, first, count)`` of each unit that streams the input: one
    shared dispatcher takes all ``total`` items; otherwise unit ``i`` of
    ``n`` (a private dispatcher, or a coupled walker feeding itself)
    starts at item ``i`` and takes every ``n``-th."""
    widx = config.widx
    if widx.mode == "shared":
        return [("dispatcher", 0, total)]
    n = widx.num_walkers
    role = "dispatcher" if widx.mode == "private" else "walker"
    return [(f"{role}{i}", i, 0 if i >= total else (total - i + n - 1) // n)
            for i in range(n)]


def _each_walker(config: SystemConfig, walker: GeneratedProgram,
                 **values: int) -> List[UnitRegisters]:
    return [(f"walker{i}", _named(walker, **values))
            for i in range(config.widx.num_walkers)]


def _probe_count(probe_column: Column, probes: Optional[int]) -> int:
    """The first ``probes`` rows (all by default) of a materialized
    probe column."""
    if not probe_column.is_materialized:
        raise WidxFault("probe keys must be materialized in simulated memory")
    total_keys = len(probe_column.values)
    return total_keys if probes is None else min(probes, total_keys)


def _searched(index, keys) -> List[int]:
    """Functional point lookups: the payload of every key found."""
    payloads = (index.search(key) for key in keys)
    return [payload for payload in payloads if payload is not None]


class OffloadAdapter:
    """One traversal's share of an offload; :func:`run_offload` does the
    rest.

    The constructor checks the inputs and computes the functional
    ``reference`` payloads of the ``tuples`` probes (or ranges) the run
    processes on ``config``.  ``staged``, when set, is an input staged in
    a scratch region: ``(name tag, value width in bytes, values)``.
    """

    divergence = ""                     # validation-failure message
    stats = True                        # publish a stats registry snapshot
    out_tag = "out"                     # output region name tag
    staged: Optional[Tuple[str, int, List[int]]] = None

    def __init__(self, index, config: SystemConfig, tuples: int,
                 reference: List[int]) -> None:
        self.index = index
        self.config = config
        self.tuples = tuples
        self.reference = reference

    def programs(self) -> Tuple[Optional[GeneratedProgram], GeneratedProgram]:
        """The dispatcher (``None`` for autonomous walkers) and walker."""
        raise NotImplementedError

    def warm(self, hierarchy) -> None:
        """Install the traversal's working set, region by region."""
        raise NotImplementedError

    def registers(self, dispatcher: Optional[GeneratedProgram],
                  walker: GeneratedProgram,
                  staged_base: Optional[int]) -> List[UnitRegisters]:
        """Every unit's register writes but the producer's, in order."""
        raise NotImplementedError


class HashProbe(OffloadAdapter):
    """Hash-index bulk probe in any organization (:func:`offload_probe`)."""

    divergence = "Widx offload diverged from the reference probe"

    def __init__(self, index: HashIndex, probe_column: Column,
                 config: SystemConfig, probes: Optional[int] = None) -> None:
        probes = _probe_count(probe_column, probes)
        if probes < 1:
            raise WidxFault("need at least one probe")
        reference: List[int] = []
        for row in range(probes):
            reference.extend(index.probe(int(probe_column.values[row])))
        super().__init__(index, config, probes, reference)
        self.probe_column = probe_column

    def programs(self):
        """The organization's dispatcher and chain walker, or the
        coupled walker that hashes inline."""
        index = self.index
        widx = self.config.widx
        if widx.mode == "coupled":
            return None, coupled_walker_program(
                index.hash_spec, index.layout, stride_keys=widx.num_walkers)
        stride = widx.num_walkers if widx.mode == "private" else 1
        return (dispatcher_program(index.hash_spec, index.layout,
                                   stride_keys=stride),
                walker_program(index.layout))

    def warm(self, hierarchy) -> None:
        """Buckets, used nodes and (indirect layout) the key column."""
        warm_hash_index(hierarchy, self.index)

    def dispatch_registers(self, program: GeneratedProgram, first: int,
                           count: int) -> Dict[int, int]:
        """Registers of a unit hashing ``count`` probe keys from row
        ``first`` on (a dispatcher, or a coupled walker)."""
        index = self.index
        return _named(program, key_cursor=(self.probe_column.region.base
                                           + first * index.layout.key_bytes),
                      key_count=count, bucket_base=index.buckets.base,
                      bucket_mask=index.num_buckets - 1)

    def walker_registers(self, walker: GeneratedProgram
                         ) -> List[UnitRegisters]:
        """The indirect layout's key-column base, for every walker."""
        if not self.index.layout.indirect:
            return []
        return _each_walker(self.config, walker,
                            column_base=self.index.key_column.region.base)

    def registers(self, dispatcher, walker, staged_base):
        """Each streaming unit's share of the probe keys, then the
        walkers' key-column base."""
        program = dispatcher if dispatcher is not None else walker
        return ([(unit, self.dispatch_registers(program, first, count))
                 for unit, first, count in _split(self.config, self.tuples)]
                + self.walker_registers(walker))


class _Tree:
    """Index mixin (like :class:`_Trie`, :class:`_Wormhole`): the index
    class an ordered adapter expects, the regions it warms and the index
    registers of its dispatcher and walkers.  B+-tree outcomes carry no
    stats snapshot: adding one changes merged-stats digests recorded over
    them."""

    kind = "tree"
    index_type = BPlusTree
    expects = "a BPlusTree"
    stats = False

    def warm(self, hierarchy) -> None:
        hierarchy.warm_range(self.index.region.base,
                             self.index.footprint_bytes)

    def dispatch_extra(self) -> Dict[str, int]:
        return {"root": self.index.root}

    def walker_registers(self, walker) -> List[UnitRegisters]:
        return []


class _Trie:
    kind = "trie"
    index_type = MlpTrie
    expects = "an MlpTrie"

    def warm(self, hierarchy) -> None:
        trie = self.index
        hierarchy.warm_range(trie.buckets.base, trie.buckets.size)
        if trie.overflow is not None:
            hierarchy.warm_range(trie.overflow.base, trie.overflow.size)

    def dispatch_extra(self) -> Dict[str, int]:
        return {}

    def walker_registers(self, walker) -> List[UnitRegisters]:
        return _each_walker(self.config, walker,
                            bucket_base=self.index.buckets.base,
                            bucket_mask=self.index.bucket_mask)


class _Wormhole:
    kind = "wormhole"
    index_type = WormholeIndex
    expects = "a WormholeIndex"

    def warm(self, hierarchy) -> None:
        index = self.index
        hierarchy.warm_range(index.leaves.base, index.leaves.size)
        hierarchy.warm_range(index.meta.base, index.meta.size)
        if index.overflow is not None:
            hierarchy.warm_range(index.overflow.base, index.overflow.size)

    def dispatch_extra(self) -> Dict[str, int]:
        return {"root": self.index.first_leaf}

    def walker_registers(self, walker) -> List[UnitRegisters]:
        return _each_walker(self.config, walker,
                            meta_base=self.index.meta.base,
                            meta_mask=self.index.meta_mask)


class _PointSearch(OffloadAdapter):
    """Ordered-index point lookups: shared or private dispatchers stream
    bare probe keys (there is no hashing stage to couple)."""

    def __init__(self, index, probe_column: Column, config: SystemConfig,
                 probes: Optional[int] = None) -> None:
        if not isinstance(index, self.index_type):
            raise WidxFault(f"offload_{self.kind}_search expects "
                            f"{self.expects}")
        probes = _probe_count(probe_column, probes)
        if config.widx.mode == "coupled":
            raise WidxFault(f"{self.kind} search has no hashing stage to "
                            f"couple; use 'shared' or 'private'")
        if probes < 1:
            raise WidxFault("need at least one probe")
        keys = (int(probe_column.values[row]) for row in range(probes))
        super().__init__(index, config, probes, _searched(index, keys))
        self.probe_column = probe_column
        self.key_bytes = probe_column.dtype.nbytes
        self.stride = (config.widx.num_walkers
                       if config.widx.mode == "private" else 1)
        self.divergence = f"{self.kind} offload diverged"

    def registers(self, dispatcher, walker, staged_base):
        base = self.probe_column.region.base
        return ([(unit, _named(dispatcher,
                               key_cursor=base + first * self.key_bytes,
                               key_count=count, **self.dispatch_extra()))
                 for unit, first, count in _split(self.config, self.tuples)]
                + self.walker_registers(walker))


class _RangeScan(OffloadAdapter):
    """Multi-range scans: the shared dispatcher streams host-staged range
    records and each walker scans one whole range."""

    out_tag = "rout"
    key_limit = KEY_PAD                 # exclusive bound on range keys

    def __init__(self, index, ranges, config: SystemConfig) -> None:
        if not isinstance(index, self.index_type):
            raise WidxFault(f"offload_{self.kind}_ranges expects "
                            f"{self.expects}")
        if config.widx.mode != "shared":
            raise WidxFault("range scans use the shared-dispatcher "
                            "organization")
        ranges = [(int(low), int(high)) for low, high in ranges]
        if not ranges:
            raise WidxFault("need at least one range")
        for low, high in ranges:
            if not 0 <= low <= high < self.key_limit:
                raise WidxFault(f"bad range [{low}, {high}]")
        reference: List[int] = []
        for low, high in ranges:
            reference.extend(payload for _key, payload
                             in index.range_scan(low, high))
        super().__init__(index, config, len(ranges), reference)
        self.staged = ("ranges", *self.records(ranges))

    def records(self, ranges) -> Tuple[int, List[int]]:
        """Value width and values of the staged records: u32 pairs."""
        return 4, [bound for pair in ranges for bound in pair]

    def registers(self, dispatcher, walker, staged_base):
        return ([("dispatcher", _named(dispatcher, range_cursor=staged_base,
                                       range_count=self.tuples,
                                       **self.dispatch_extra()))]
                + self.walker_registers(walker))


class _TreeSearch(_Tree, _PointSearch):
    def programs(self):
        return (tree_dispatcher_program(self.key_bytes,
                                        stride_keys=self.stride),
                tree_walker_program())


class _TreeRanges(_Tree, _RangeScan):
    divergence = "range offload diverged"

    def programs(self):
        return range_dispatcher_program(), tree_range_walker_program()


class _TrieSearch(_Trie, _PointSearch):
    def programs(self):
        return (key_dispatcher_program(self.key_bytes,
                                       stride_keys=self.stride),
                trie_walker_program(self.index.hash_spec))


class _TrieRanges(_Trie, _RangeScan):
    divergence = "trie range offload diverged"
    key_limit = float("inf")

    def records(self, ranges):
        """(start terminal, high) u64 pairs: the host plans each start."""
        return 8, [value for low, high in ranges
                   for value in (self.index.search_start(low), high)]

    def programs(self):
        return trie_range_dispatcher_program(), trie_range_walker_program()

    def walker_registers(self, walker) -> List[UnitRegisters]:
        return []                       # chain walkers need no buckets


class _WormholeSearch(_Wormhole, _PointSearch):
    def programs(self):
        return (tree_dispatcher_program(self.key_bytes,
                                        stride_keys=self.stride),
                wormhole_walker_program(self.index.hash_spec))


class _WormholeRanges(_Wormhole, _RangeScan):
    divergence = "wormhole range offload diverged"

    def programs(self):
        return (range_dispatcher_program(),
                wormhole_range_walker_program(self.index.hash_spec))


class _BatchedTreeSearch(OffloadAdapter):
    """Level-wise batched B+-tree lookups on autonomous walkers, over a
    staged key stream (:func:`offload_batched_tree`)."""

    divergence = "batched tree offload diverged"
    out_tag = "bout"
    warm = _Tree.warm

    def __init__(self, tree, probe_column: Column, config: SystemConfig,
                 probes: Optional[int], batch: int,
                 sort_batches: bool) -> None:
        if not isinstance(tree, BPlusTree):
            raise WidxFault("offload_batched_tree expects a BPlusTree")
        probes = _probe_count(probe_column, probes) // batch * batch
        if probes < batch:
            raise WidxFault(f"need at least one whole batch of {batch} probes")
        staged: List[int] = []
        for start in range(0, probes, batch):
            group = [int(probe_column.values[start + i]) for i in range(batch)]
            if sort_batches:
                group.sort()
            staged.extend(group)
        # Batched descent is an autonomous-walker program: force the
        # coupled organization while keeping the caller's walker count.
        super().__init__(tree, config.with_widx(mode="coupled"), probes,
                         _searched(tree, staged))
        self.batch = batch
        self.staged = ("bkeys", 4, staged)

    def programs(self):
        return None, batched_tree_walker_program(
            self.batch, stride_batches=self.config.widx.num_walkers)

    def registers(self, dispatcher, walker, staged_base):
        return [(unit, _named(walker,
                              key_cursor=staged_base + first * self.batch * 4,
                              batch_count=count, root=self.index.root))
                for unit, first, count
                in _split(self.config, self.tuples // self.batch)]


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------

def run_offload(adapter: OffloadAdapter, *,
                warm: bool = True,
                validate: bool = True,
                memory: Optional[MemoryHierarchy] = None,
                engine=None,
                unit_cls=None,
                fallback_to_host: bool = False,
                configure_hook=None,
                tracer=None,
                trail=None,
                faults: Sequence[UnitFault] = ()) -> OffloadOutcome:
    """Run one offload described by ``adapter`` to completion.

    Stages the adapter's input and allocates the output buffer as scratch
    regions, builds and configures the machine on a fresh hierarchy for
    the configured placement (or the injected ``memory``), runs it, reads
    the payloads back and validates them against the adapter's
    reference.  The keyword arguments are those of :func:`offload_probe`;
    the host fallback re-runs hash probes only (a :class:`HashProbe`).
    """
    space = adapter.index.space
    name = adapter.index.name
    run_id = next(_offload_counter)
    # Scratch regions are released (LIFO, rewinding the space's break)
    # before returning, so every offload against this workload sees the
    # same address layout no matter how many offloads ran before it.
    regions = []
    try:
        staged_base = None
        if adapter.staged is not None:
            tag, width, values = adapter.staged
            region = space.allocate(f"{name}:{tag}{run_id}",
                                    max(64, width * len(values)), align=64)
            regions.append(region)
            write = (space.memory.write_u32 if width == 4
                     else space.memory.write_u64)
            for offset, value in enumerate(values):
                write(region.base + width * offset, value)
            staged_base = region.base
        out_region = space.allocate(
            f"{name}:{adapter.out_tag}{run_id}",
            max(64, 8 * (len(adapter.reference) + 1)), align=64)
        regions.append(out_region)

        config = adapter.config
        dispatcher, walker = adapter.programs()
        producer = producer_program(8)
        programs = {role: program for role, program
                    in (("dispatcher", dispatcher), ("walker", walker),
                        ("producer", producer)) if program is not None}

        hierarchy = memory if memory is not None else _hierarchy_for(config)
        if warm:
            adapter.warm(hierarchy)
        machine_kwargs = {} if unit_cls is None else {"unit_cls": unit_cls}
        machine = WidxMachine(config, hierarchy, space.memory, engine=engine,
                              tracer=tracer, **machine_kwargs)
        machine.build(dispatcher, walker, producer)
        if trail is not None:
            from .trail import TrailRecorder
            machine.attach_trail(TrailRecorder(trail))
        for unit, values in adapter.registers(dispatcher, walker,
                                              staged_base):
            machine.configure_unit(unit, values)
        machine.configure_unit(
            "producer",
            {producer.config_registers["out_cursor"]: out_region.base})
        if configure_hook is not None:
            configure_hook(machine)

        try:
            run = machine.run(expected_tuples=adapter.tuples, faults=faults)
        except (MemoryError_, WidxFault):
            if not fallback_to_host:
                raise
            return _host_fallback(adapter, machine, programs)
        except SimulationHang:
            # Only an injected stall makes a hang *expected* (the watchdog /
            # deadlock detector catching a wedged walker); a hang in a
            # fault-free run is a real bug and must propagate.
            if not (faults and fallback_to_host):
                raise
            return _host_fallback(adapter, machine, programs)
        payloads = [space.memory.read_u64(out_region.base + 8 * i)
                    for i in range(run.matches)]
    finally:
        for region in reversed(regions):
            space.release(region)

    reference = adapter.reference
    validated: Optional[bool] = None
    if validate:
        validated = sorted(payloads) == sorted(reference)
        if not validated:
            raise WidxFault(
                f"{adapter.divergence}: {len(payloads)} emitted vs "
                f"{len(reference)} expected")
    stats = None
    if adapter.stats:
        registry = StatsRegistry()
        hierarchy.register_into(registry, "mem")
        machine.register_into(registry)
        machine.engine.register_into(registry, "sim.engine")
        if trail is not None:
            registry.register("widx.trails", trail)
        stats = registry.to_dict()
    return OffloadOutcome(run=run, payloads=payloads, validated=validated,
                          memory=hierarchy, programs=programs, stats=stats)


def _host_fallback(adapter: HashProbe, machine: WidxMachine,
                   programs: Dict[str, GeneratedProgram]) -> OffloadOutcome:
    """Abort the offload and re-execute the whole operation on the host
    core (the paper's all-or-nothing recovery path)."""
    from ..cpu.timing import measure_indexing

    abort_cycles = machine.engine.now
    if machine.tracer is not None:
        # The abort tears the machine down mid-flight; force-close any
        # in-progress unit spans so the trace stays well-formed.
        machine.tracer.close_all(abort_cycles)
    probes = adapter.tuples
    warmup = max(1, min(256, probes // 4))
    host = measure_indexing(adapter.index, adapter.probe_column, core="ooo",
                            config=adapter.config, warmup_probes=warmup,
                            measure_probes=probes - warmup)
    total = abort_cycles + host.cycles_per_tuple * probes
    run = WidxRunResult(total_cycles=total, tuples=probes,
                        matches=len(adapter.reference),
                        config_cycles=machine.configuration_cycles(),
                        unit_stats={name: unit.stats
                                    for name, unit in machine.units.items()})
    return OffloadOutcome(run=run, payloads=list(adapter.reference),
                          validated=True, memory=None, programs=programs,
                          fell_back=True, abort_cycles=abort_cycles)


# ----------------------------------------------------------------------
# Public drivers
# ----------------------------------------------------------------------

def offload_probe(index: HashIndex, probe_column: Column, *,
                  config: SystemConfig = DEFAULT_CONFIG,
                  probes: Optional[int] = None,
                  warm: bool = True,
                  validate: bool = True,
                  memory: Optional[MemoryHierarchy] = None,
                  engine=None,
                  unit_cls=None,
                  fallback_to_host: bool = False,
                  configure_hook=None,
                  tracer=None,
                  trail=None,
                  faults: Sequence[UnitFault] = ()) -> OffloadOutcome:
    """Probe ``index`` with the first ``probes`` keys of ``probe_column``
    on the configured Widx organization; returns timing plus results.

    ``fallback_to_host`` enables the paper's atomic all-or-nothing model
    (Section 4.3): if the accelerator faults (a bad control block, a wild
    pointer — anything other than a TLB miss, which the host MMU services
    in place), the offload aborts and the indexing operation re-executes
    completely on the host core; the returned outcome charges both the
    wasted accelerator cycles and the host re-run.

    ``memory``, ``engine`` and ``unit_cls`` inject a pre-built hierarchy,
    discrete-event engine and unit implementation — the differential tests
    and benchmarks use them to run the whole offload on the naive reference
    implementations (:class:`~repro.sim.reference.ReferenceEngine`,
    :func:`~repro.mem.reference.use_reference_arrays`,
    :class:`~repro.widx.reference.ReferenceWidxUnit`).

    ``configure_hook(machine)`` runs after standard configuration — used
    by fault-injection tests to corrupt configuration registers.

    ``trail`` (a :class:`~repro.obs.metrics.Trail`) opts into walker-trail
    capture: every dispatched walker records each invocation's traversal
    path — per-``LD`` address and servicing cache level — into the
    bounded ring, and the filled Trail is published into the outcome's
    stats registry as ``widx.trails``.  Autonomous walkers (coupled
    mode) have no per-key invocations and record nothing.

    ``faults`` injects seeded :class:`~repro.widx.machine.UnitFault`
    events mid-offload (see :func:`repro.harness.chaos.walker_faults`).
    A survivable walker death degrades the run; an unrecoverable fault
    or stall aborts it — recovered on the host when
    ``fallback_to_host`` is set, raised otherwise.
    """
    return run_offload(HashProbe(index, probe_column, config, probes),
                       warm=warm, validate=validate, memory=memory,
                       engine=engine, unit_cls=unit_cls,
                       fallback_to_host=fallback_to_host,
                       configure_hook=configure_hook, tracer=tracer,
                       trail=trail, faults=faults)


def offload_tree_search(tree, probe_column: Column, *,
                        config: SystemConfig = DEFAULT_CONFIG,
                        probes: Optional[int] = None,
                        warm: bool = True,
                        validate: bool = True,
                        memory: Optional[MemoryHierarchy] = None
                        ) -> OffloadOutcome:
    """Accelerate B+-tree point lookups (the Section 7 tree extension).

    Same machine, different programs: the dispatcher streams probe keys
    (no hashing) and the walkers run the generated tree-descent function.
    Only the ``shared`` and ``private`` organizations apply — trees have no
    hashing stage to couple.
    """
    return run_offload(_TreeSearch(tree, probe_column, config, probes),
                       warm=warm, validate=validate, memory=memory)


def offload_tree_ranges(tree, ranges, *,
                        config: SystemConfig = DEFAULT_CONFIG,
                        warm: bool = True,
                        validate: bool = True,
                        memory: Optional[MemoryHierarchy] = None
                        ) -> OffloadOutcome:
    """Accelerate multi-range B+-tree scans (IN-lists, multi-range
    predicates): the dispatcher streams (low, high) pairs and each walker
    scans one whole range — inter-range parallelism, the range analogue of
    the paper's inter-key parallelism.
    """
    return run_offload(_TreeRanges(tree, ranges, config),
                       warm=warm, validate=validate, memory=memory)


def offload_trie_search(trie, probe_column: Column, *,
                        config: SystemConfig = DEFAULT_CONFIG,
                        probes: Optional[int] = None,
                        warm: bool = True,
                        validate: bool = True,
                        memory: Optional[MemoryHierarchy] = None,
                        engine=None, unit_cls=None) -> OffloadOutcome:
    """Accelerate MLP-trie point lookups.

    The dispatcher streams bare keys; each walker computes all eight
    candidate bucket addresses from the key, TOUCHes them up front, then
    probes depth by depth until a tag matches — the Cuckoo-Trie fetch
    pattern run on a Widx unit.
    """
    return run_offload(_TrieSearch(trie, probe_column, config, probes),
                       warm=warm, validate=validate, memory=memory,
                       engine=engine, unit_cls=unit_cls)


def offload_trie_ranges(trie, ranges, *,
                        config: SystemConfig = DEFAULT_CONFIG,
                        warm: bool = True,
                        validate: bool = True,
                        memory: Optional[MemoryHierarchy] = None,
                        engine=None, unit_cls=None) -> OffloadOutcome:
    """Accelerate multi-range trie scans over the sorted terminal chain.

    The host plans each range's start terminal on its sorted key list
    (the same bisect any secondary-structure scan performs); the
    dispatcher streams (start, high) records and each walker streams one
    chain segment, emitting payloads while the stored key stays in range.
    """
    return run_offload(_TrieRanges(trie, ranges, config),
                       warm=warm, validate=validate, memory=memory,
                       engine=engine, unit_cls=unit_cls)


def offload_wormhole_search(index, probe_column: Column, *,
                            config: SystemConfig = DEFAULT_CONFIG,
                            probes: Optional[int] = None,
                            warm: bool = True,
                            validate: bool = True,
                            memory: Optional[MemoryHierarchy] = None,
                            engine=None, unit_cls=None) -> OffloadOutcome:
    """Accelerate wormhole point lookups.

    The tree dispatcher streams (key, first-leaf) pairs; each walker
    binary-searches the MetaTrieHash for the key's longest anchor prefix,
    then walks at most a few leaves forward — the collapsed pointer
    chain, run on a Widx unit.
    """
    return run_offload(_WormholeSearch(index, probe_column, config, probes),
                       warm=warm, validate=validate, memory=memory,
                       engine=engine, unit_cls=unit_cls)


def offload_wormhole_ranges(index, ranges, *,
                            config: SystemConfig = DEFAULT_CONFIG,
                            warm: bool = True,
                            validate: bool = True,
                            memory: Optional[MemoryHierarchy] = None,
                            engine=None, unit_cls=None) -> OffloadOutcome:
    """Accelerate multi-range wormhole scans: locate ``low``'s leaf via
    the MetaTrieHash, then stream the sorted leaf chain."""
    return run_offload(_WormholeRanges(index, ranges, config),
                       warm=warm, validate=validate, memory=memory,
                       engine=engine, unit_cls=unit_cls)


def offload_batched_tree(tree, probe_column: Column, *,
                         config: SystemConfig = DEFAULT_CONFIG,
                         probes: Optional[int] = None,
                         batch: int = 4,
                         sort_batches: bool = True,
                         warm: bool = True,
                         validate: bool = True,
                         memory: Optional[MemoryHierarchy] = None,
                         engine=None, unit_cls=None) -> OffloadOutcome:
    """Accelerate level-wise *batched* B+-tree lookups.

    Autonomous walkers (the coupled organization, regardless of the
    configured mode — there is no dispatch stage) each load ``batch``
    probe keys into registers and descend them in lock-step, one tree
    level per iteration.  With ``sort_batches`` the driver stages a
    batch-locally sorted copy of the key stream, so a batch's probes
    route through shared upper-level nodes and the repeat fetches hit in
    the L1 — composing with the serve layer's ``size:N`` batching, whose
    admission queue hands the walker exactly such key groups.

    The probe count is truncated to a whole number of batches (serving
    batches are fixed-size by construction).
    """
    return run_offload(
        _BatchedTreeSearch(tree, probe_column, config, probes, batch,
                          sort_batches),
        warm=warm, validate=validate, memory=memory, engine=engine,
        unit_cls=unit_cls)
