"""High-level Widx offload driver.

``offload_probe`` is the library's headline entry point: given a built
:class:`~repro.db.HashIndex` and a materialized probe-key column, it
generates the three Widx programs for the index's schema, configures a
:class:`WidxMachine`, runs the bulk probe to completion, and validates the
emitted matches against the functional reference — the paper's atomic
all-or-nothing offload, with the host core idle throughout.

Widx offloads always run on the discrete-event engine, even under the
harness's ``--bulk`` flag: the walkers *share* the MSHRs, cache ports and
(in shared mode) the dispatcher queue, so every probe's timing depends on
its neighbours'.  Only the serving sweep (:mod:`repro.serve.bulk`) has
an uncontended schedule to vectorize.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..config import SystemConfig, DEFAULT_CONFIG
from ..cpu.timing import warm_hash_index
from ..db.column import Column
from ..db.hashtable import HashIndex
from ..errors import MemoryError_, SimulationHang, WidxFault
from ..mem.hierarchy import MemoryHierarchy
from ..obs import StatsRegistry
from ..sim.watchdog import Watchdog
from .machine import UnitFault, WidxMachine, WidxRunResult
from .programs import (GeneratedProgram, coupled_walker_program,
                       dispatcher_program, producer_program, walker_program)

_offload_counter = itertools.count()


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
                  watchdog: Optional[Watchdog] = None,
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

    ``watchdog`` overrides the default progress watchdog — pass one built
    from tighter :class:`~repro.sim.watchdog.WatchdogLimits` to budget the
    measurement's simulated cycles or wall-clock time.

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
    if not probe_column.is_materialized:
        raise WidxFault("probe keys must be materialized in simulated memory")
    total_keys = len(probe_column.values)
    probes = total_keys if probes is None else min(probes, total_keys)
    if probes < 1:
        raise WidxFault("need at least one probe")

    space = index.space
    layout = index.layout
    widx = config.widx
    n = widx.num_walkers
    key_bytes = layout.key_bytes

    # Reference results: used both to size the output region and (if asked)
    # to validate the accelerated run.
    reference: List[int] = []
    for row in range(probes):
        reference.extend(index.probe(int(probe_column.values[row])))

    run_id = next(_offload_counter)
    # The output buffer is scratch: released (and the space's break rewound)
    # before returning, so every offload against this workload sees the
    # same address layout no matter how many offloads ran before it.
    out_region = space.allocate(f"{index.name}:out{run_id}",
                                max(64, 8 * (len(reference) + 1)), align=64)
    try:
        return _offload_probe_with_region(
            index, probe_column, probes, config, warm, validate, memory,
            fallback_to_host, configure_hook, reference, out_region,
            watchdog, tracer, engine, unit_cls, faults, trail)
    finally:
        space.release(out_region)


def _offload_probe_with_region(index, probe_column, probes, config, warm,
                               validate, memory, fallback_to_host,
                               configure_hook, reference, out_region,
                               watchdog=None, tracer=None,
                               engine=None, unit_cls=None,
                               faults=(), trail=None) -> OffloadOutcome:
    space = index.space
    layout = index.layout
    widx = config.widx
    n = widx.num_walkers
    key_bytes = layout.key_bytes

    # --- program generation -------------------------------------------
    programs: Dict[str, GeneratedProgram] = {}
    mode = widx.mode
    if mode == "coupled":
        walker = coupled_walker_program(index.hash_spec, layout,
                                        stride_keys=n)
        dispatcher = None
    else:
        stride = n if mode == "private" else 1
        dispatcher = dispatcher_program(index.hash_spec, layout,
                                        stride_keys=stride)
        walker = walker_program(layout)
        programs["dispatcher"] = dispatcher
    producer = producer_program(8)
    programs["walker"] = walker
    programs["producer"] = producer

    # --- machine ------------------------------------------------------
    hierarchy = memory if memory is not None else _hierarchy_for(config)
    if warm:
        warm_hash_index(hierarchy, index)
    machine_kwargs = {} if unit_cls is None else {"unit_cls": unit_cls}
    machine = WidxMachine(config, hierarchy, space.memory, engine=engine,
                          tracer=tracer, **machine_kwargs)
    machine.build(dispatcher, walker, producer)
    if trail is not None:
        from .trail import TrailRecorder
        machine.attach_trail(TrailRecorder(trail))

    mask = index.num_buckets - 1
    base = probe_column.region.base

    def dispatch_config(unit_index: int, stride: int) -> Dict[int, int]:
        first = unit_index
        count = 0 if first >= probes else (probes - first + stride - 1) // stride
        generated = dispatcher if dispatcher is not None else walker
        regs = generated.config_registers
        values = {
            regs["key_cursor"]: base + first * key_bytes,
            regs["key_count"]: count,
            regs["bucket_base"]: index.buckets.base,
            regs["bucket_mask"]: mask,
        }
        return values

    if mode == "shared":
        machine.configure_unit("dispatcher", dispatch_config(0, 1))
    elif mode == "private":
        for i in range(n):
            machine.configure_unit(f"dispatcher{i}", dispatch_config(i, n))
    else:  # coupled walkers hash inline
        for i in range(n):
            machine.configure_unit(f"walker{i}", dispatch_config(i, n))

    if layout.indirect:
        column_reg = walker.config_registers["column_base"]
        column_base = index.key_column.region.base
        for i in range(n):
            machine.configure_unit(f"walker{i}", {column_reg: column_base})

    machine.configure_unit(
        "producer",
        {producer.config_registers["out_cursor"]: out_region.base})
    if configure_hook is not None:
        configure_hook(machine)

    # --- run and read back --------------------------------------------
    try:
        run = machine.run(expected_tuples=probes, watchdog=watchdog,
                          faults=faults)
    except (MemoryError_, WidxFault):
        if not fallback_to_host:
            raise
        return _host_fallback(index, probe_column, probes, config,
                              machine, programs, reference)
    except SimulationHang:
        # Only an injected stall makes a hang *expected* (the watchdog /
        # deadlock detector catching a wedged walker); a hang in a
        # fault-free run is a real bug and must propagate.
        if not (faults and fallback_to_host):
            raise
        return _host_fallback(index, probe_column, probes, config,
                              machine, programs, reference)
    payloads = [space.memory.read_u64(out_region.base + 8 * i)
                for i in range(run.matches)]

    validated: Optional[bool] = None
    if validate:
        validated = sorted(payloads) == sorted(reference)
        if not validated:
            raise WidxFault(
                f"Widx offload diverged from the reference probe: "
                f"{len(payloads)} emitted vs {len(reference)} expected")
    registry = StatsRegistry()
    hierarchy.register_into(registry, "mem")
    machine.register_into(registry)
    machine.engine.register_into(registry, "sim.engine")
    if trail is not None:
        registry.register("widx.trails", trail)
    return OffloadOutcome(run=run, payloads=payloads, validated=validated,
                          memory=hierarchy, programs=programs,
                          stats=registry.to_dict())


def _host_fallback(index: HashIndex, probe_column: Column, probes: int,
                   config: SystemConfig, machine: WidxMachine,
                   programs: Dict[str, GeneratedProgram],
                   reference: List[int]) -> OffloadOutcome:
    """Abort the offload and re-execute the whole operation on the host
    core (the paper's all-or-nothing recovery path)."""
    from ..cpu.timing import measure_indexing

    abort_cycles = machine.engine.now
    if machine.tracer is not None:
        # The abort tears the machine down mid-flight; force-close any
        # in-progress unit spans so the trace stays well-formed.
        machine.tracer.close_all(abort_cycles)
    warmup = max(1, min(256, probes // 4))
    host = measure_indexing(index, probe_column, core="ooo", config=config,
                            warmup_probes=warmup,
                            measure_probes=probes - warmup)
    total = abort_cycles + host.cycles_per_tuple * probes
    run = WidxRunResult(total_cycles=total, tuples=probes,
                        matches=len(reference),
                        config_cycles=machine.configuration_cycles(),
                        unit_stats={name: unit.stats
                                    for name, unit in machine.units.items()})
    return OffloadOutcome(run=run, payloads=list(reference), validated=True,
                          memory=None, programs=programs, fell_back=True,
                          abort_cycles=abort_cycles)


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
    from ..db.btree import BPlusTree
    from .programs import (tree_dispatcher_program, tree_walker_program)

    if not isinstance(tree, BPlusTree):
        raise WidxFault("offload_tree_search expects a BPlusTree")
    if not probe_column.is_materialized:
        raise WidxFault("probe keys must be materialized in simulated memory")
    if config.widx.mode == "coupled":
        raise WidxFault("tree search has no hashing stage to couple; use "
                        "'shared' or 'private'")
    total_keys = len(probe_column.values)
    probes = total_keys if probes is None else min(probes, total_keys)
    if probes < 1:
        raise WidxFault("need at least one probe")

    space = tree.space
    widx = config.widx
    n = widx.num_walkers
    key_bytes = probe_column.dtype.nbytes

    reference = []
    for row in range(probes):
        payload = tree.search(int(probe_column.values[row]))
        if payload is not None:
            reference.append(payload)

    run_id = next(_offload_counter)
    out_region = space.allocate(f"{tree.name}:out{run_id}",
                                max(64, 8 * (len(reference) + 1)), align=64)
    try:
        stride = n if widx.mode == "private" else 1
        dispatcher = tree_dispatcher_program(key_bytes, stride_keys=stride)
        walker = tree_walker_program()
        producer = producer_program(8)

        hierarchy = memory if memory is not None else _hierarchy_for(config)
        if warm:
            hierarchy.warm_range(tree.region.base, tree.footprint_bytes)
        machine = WidxMachine(config, hierarchy, space.memory)
        machine.build(dispatcher, walker, producer)

        base = probe_column.region.base
        regs = dispatcher.config_registers

        def dispatch_config(unit_index: int, unit_stride: int):
            first = unit_index
            count = 0 if first >= probes else \
                (probes - first + unit_stride - 1) // unit_stride
            return {
                regs["key_cursor"]: base + first * key_bytes,
                regs["key_count"]: count,
                regs["root"]: tree.root,
            }

        if widx.mode == "shared":
            machine.configure_unit("dispatcher", dispatch_config(0, 1))
        else:
            for i in range(n):
                machine.configure_unit(f"dispatcher{i}", dispatch_config(i, n))
        machine.configure_unit(
            "producer",
            {producer.config_registers["out_cursor"]: out_region.base})

        run = machine.run(expected_tuples=probes)
        payloads = [space.memory.read_u64(out_region.base + 8 * i)
                    for i in range(run.matches)]
        validated: Optional[bool] = None
        if validate:
            validated = sorted(payloads) == sorted(reference)
            if not validated:
                raise WidxFault(
                    f"tree offload diverged: {len(payloads)} emitted vs "
                    f"{len(reference)} expected")
        return OffloadOutcome(run=run, payloads=payloads, validated=validated,
                              memory=hierarchy,
                              programs={"dispatcher": dispatcher,
                                        "walker": walker, "producer": producer})
    finally:
        space.release(out_region)


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
    from ..db.btree import BPlusTree, KEY_PAD
    from .programs import (range_dispatcher_program,
                           tree_range_walker_program)

    if not isinstance(tree, BPlusTree):
        raise WidxFault("offload_tree_ranges expects a BPlusTree")
    if config.widx.mode != "shared":
        raise WidxFault("range scans use the shared-dispatcher organization")
    ranges = [(int(low), int(high)) for low, high in ranges]
    if not ranges:
        raise WidxFault("need at least one range")
    for low, high in ranges:
        if not 0 <= low <= high < KEY_PAD:
            raise WidxFault(f"bad range [{low}, {high}]")

    space = tree.space
    n = config.widx.num_walkers
    run_id = next(_offload_counter)

    reference: List[int] = []
    for low, high in ranges:
        reference.extend(payload for _key, payload
                         in tree.range_scan(low, high))

    range_region = space.allocate(f"{tree.name}:ranges{run_id}",
                                  max(64, 8 * len(ranges)), align=64)
    try:
        for offset, (low, high) in enumerate(ranges):
            space.memory.write_u32(range_region.base + 8 * offset, low)
            space.memory.write_u32(range_region.base + 8 * offset + 4, high)
        out_region = space.allocate(f"{tree.name}:rout{run_id}",
                                    max(64, 8 * (len(reference) + 1)),
                                    align=64)
        try:
            dispatcher = range_dispatcher_program()
            walker = tree_range_walker_program()
            producer = producer_program(8)

            hierarchy = memory if memory is not None else _hierarchy_for(config)
            if warm:
                hierarchy.warm_range(tree.region.base, tree.footprint_bytes)
            machine = WidxMachine(config, hierarchy, space.memory)
            machine.build(dispatcher, walker, producer)
            regs = dispatcher.config_registers
            machine.configure_unit("dispatcher", {
                regs["range_cursor"]: range_region.base,
                regs["range_count"]: len(ranges),
                regs["root"]: tree.root,
            })
            machine.configure_unit(
                "producer",
                {producer.config_registers["out_cursor"]: out_region.base})

            run = machine.run(expected_tuples=len(ranges))
            payloads = [space.memory.read_u64(out_region.base + 8 * i)
                        for i in range(run.matches)]
            validated: Optional[bool] = None
            if validate:
                validated = sorted(payloads) == sorted(reference)
                if not validated:
                    raise WidxFault(
                        f"range offload diverged: {len(payloads)} emitted vs "
                        f"{len(reference)} expected")
            return OffloadOutcome(run=run, payloads=payloads,
                                  validated=validated, memory=hierarchy,
                                  programs={"dispatcher": dispatcher,
                                            "walker": walker,
                                            "producer": producer})
        finally:
            space.release(out_region)
    finally:
        space.release(range_region)


def _ordered_machine(config, hierarchy, space, engine=None, unit_cls=None):
    machine_kwargs = {} if unit_cls is None else {"unit_cls": unit_cls}
    return WidxMachine(config, hierarchy, space.memory, engine=engine,
                       **machine_kwargs)


def _read_payloads(space, out_region, run) -> List[int]:
    return [space.memory.read_u64(out_region.base + 8 * i)
            for i in range(run.matches)]


def _ordered_outcome(space, machine, hierarchy, run, out_region, reference,
                     validate, programs, label) -> OffloadOutcome:
    payloads = _read_payloads(space, out_region, run)
    validated: Optional[bool] = None
    if validate:
        validated = sorted(payloads) == sorted(reference)
        if not validated:
            raise WidxFault(
                f"{label} offload diverged: {len(payloads)} emitted vs "
                f"{len(reference)} expected")
    registry = StatsRegistry()
    hierarchy.register_into(registry, "mem")
    machine.register_into(registry)
    machine.engine.register_into(registry, "sim.engine")
    return OffloadOutcome(run=run, payloads=payloads, validated=validated,
                          memory=hierarchy, programs=programs,
                          stats=registry.to_dict())


def offload_trie_search(trie, probe_column: Column, *,
                        config: SystemConfig = DEFAULT_CONFIG,
                        probes: Optional[int] = None,
                        warm: bool = True,
                        validate: bool = True,
                        prefetch: bool = True,
                        memory: Optional[MemoryHierarchy] = None,
                        engine=None, unit_cls=None) -> OffloadOutcome:
    """Accelerate MLP-trie point lookups.

    The dispatcher streams bare keys; each walker computes all eight
    candidate bucket addresses from the key, TOUCHes them up front
    (``prefetch``), then probes depth by depth until a tag matches — the
    Cuckoo-Trie fetch pattern run on a Widx unit.
    """
    from ..db.trie import MlpTrie
    from .programs import key_dispatcher_program, trie_walker_program

    if not isinstance(trie, MlpTrie):
        raise WidxFault("offload_trie_search expects an MlpTrie")
    if not probe_column.is_materialized:
        raise WidxFault("probe keys must be materialized in simulated memory")
    if config.widx.mode == "coupled":
        raise WidxFault("trie search has no hashing stage to couple; use "
                        "'shared' or 'private'")
    total_keys = len(probe_column.values)
    probes = total_keys if probes is None else min(probes, total_keys)
    if probes < 1:
        raise WidxFault("need at least one probe")

    space = trie.space
    widx = config.widx
    n = widx.num_walkers
    key_bytes = probe_column.dtype.nbytes

    reference = []
    for row in range(probes):
        payload = trie.search(int(probe_column.values[row]))
        if payload is not None:
            reference.append(payload)

    run_id = next(_offload_counter)
    out_region = space.allocate(f"{trie.name}:out{run_id}",
                                max(64, 8 * (len(reference) + 1)), align=64)
    try:
        stride = n if widx.mode == "private" else 1
        dispatcher = key_dispatcher_program(key_bytes, stride_keys=stride)
        walker = trie_walker_program(trie.hash_spec, prefetch=prefetch)
        producer = producer_program(8)

        hierarchy = memory if memory is not None else _hierarchy_for(config)
        if warm:
            hierarchy.warm_range(trie.buckets.base, trie.buckets.size)
            if trie.overflow is not None:
                hierarchy.warm_range(trie.overflow.base, trie.overflow.size)
        machine = _ordered_machine(config, hierarchy, space, engine, unit_cls)
        machine.build(dispatcher, walker, producer)

        base = probe_column.region.base
        regs = dispatcher.config_registers

        def dispatch_config(unit_index: int, unit_stride: int):
            first = unit_index
            count = 0 if first >= probes else \
                (probes - first + unit_stride - 1) // unit_stride
            return {
                regs["key_cursor"]: base + first * key_bytes,
                regs["key_count"]: count,
            }

        if widx.mode == "shared":
            machine.configure_unit("dispatcher", dispatch_config(0, 1))
        else:
            for i in range(n):
                machine.configure_unit(f"dispatcher{i}", dispatch_config(i, n))
        walker_regs = walker.config_registers
        for i in range(n):
            machine.configure_unit(f"walker{i}", {
                walker_regs["bucket_base"]: trie.buckets.base,
                walker_regs["bucket_mask"]: trie.bucket_mask,
            })
        machine.configure_unit(
            "producer",
            {producer.config_registers["out_cursor"]: out_region.base})

        run = machine.run(expected_tuples=probes)
        return _ordered_outcome(
            space, machine, hierarchy, run, out_region, reference, validate,
            {"dispatcher": dispatcher, "walker": walker,
             "producer": producer}, "trie")
    finally:
        space.release(out_region)


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
    from ..db.trie import MlpTrie
    from .programs import (trie_range_dispatcher_program,
                           trie_range_walker_program)

    if not isinstance(trie, MlpTrie):
        raise WidxFault("offload_trie_ranges expects an MlpTrie")
    if config.widx.mode != "shared":
        raise WidxFault("range scans use the shared-dispatcher organization")
    ranges = [(int(low), int(high)) for low, high in ranges]
    if not ranges:
        raise WidxFault("need at least one range")
    for low, high in ranges:
        if not 0 <= low <= high:
            raise WidxFault(f"bad range [{low}, {high}]")

    space = trie.space
    run_id = next(_offload_counter)

    reference: List[int] = []
    for low, high in ranges:
        reference.extend(payload for _key, payload
                         in trie.range_scan(low, high))

    range_region = space.allocate(f"{trie.name}:ranges{run_id}",
                                  max(64, 16 * len(ranges)), align=64)
    try:
        for offset, (low, high) in enumerate(ranges):
            start = trie.search_start(low)
            space.memory.write_u64(range_region.base + 16 * offset, start)
            space.memory.write_u64(range_region.base + 16 * offset + 8, high)
        out_region = space.allocate(f"{trie.name}:rout{run_id}",
                                    max(64, 8 * (len(reference) + 1)),
                                    align=64)
        try:
            dispatcher = trie_range_dispatcher_program()
            walker = trie_range_walker_program()
            producer = producer_program(8)

            hierarchy = memory if memory is not None else _hierarchy_for(config)
            if warm:
                hierarchy.warm_range(trie.buckets.base, trie.buckets.size)
                if trie.overflow is not None:
                    hierarchy.warm_range(trie.overflow.base,
                                         trie.overflow.size)
            machine = _ordered_machine(config, hierarchy, space, engine,
                                       unit_cls)
            machine.build(dispatcher, walker, producer)
            regs = dispatcher.config_registers
            machine.configure_unit("dispatcher", {
                regs["range_cursor"]: range_region.base,
                regs["range_count"]: len(ranges),
            })
            machine.configure_unit(
                "producer",
                {producer.config_registers["out_cursor"]: out_region.base})

            run = machine.run(expected_tuples=len(ranges))
            return _ordered_outcome(
                space, machine, hierarchy, run, out_region, reference,
                validate, {"dispatcher": dispatcher, "walker": walker,
                           "producer": producer}, "trie range")
        finally:
            space.release(out_region)
    finally:
        space.release(range_region)


def _warm_wormhole(hierarchy, index) -> None:
    hierarchy.warm_range(index.leaves.base, index.leaves.size)
    hierarchy.warm_range(index.meta.base, index.meta.size)
    if index.overflow is not None:
        hierarchy.warm_range(index.overflow.base, index.overflow.size)


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
    from ..db.wormhole import WormholeIndex
    from .programs import tree_dispatcher_program, wormhole_walker_program

    if not isinstance(index, WormholeIndex):
        raise WidxFault("offload_wormhole_search expects a WormholeIndex")
    if not probe_column.is_materialized:
        raise WidxFault("probe keys must be materialized in simulated memory")
    if config.widx.mode == "coupled":
        raise WidxFault("wormhole search has no hashing stage to couple; "
                        "use 'shared' or 'private'")
    total_keys = len(probe_column.values)
    probes = total_keys if probes is None else min(probes, total_keys)
    if probes < 1:
        raise WidxFault("need at least one probe")

    space = index.space
    widx = config.widx
    n = widx.num_walkers
    key_bytes = probe_column.dtype.nbytes

    reference = []
    for row in range(probes):
        payload = index.search(int(probe_column.values[row]))
        if payload is not None:
            reference.append(payload)

    run_id = next(_offload_counter)
    out_region = space.allocate(f"{index.name}:out{run_id}",
                                max(64, 8 * (len(reference) + 1)), align=64)
    try:
        stride = n if widx.mode == "private" else 1
        dispatcher = tree_dispatcher_program(key_bytes, stride_keys=stride)
        walker = wormhole_walker_program(index.hash_spec)
        producer = producer_program(8)

        hierarchy = memory if memory is not None else _hierarchy_for(config)
        if warm:
            _warm_wormhole(hierarchy, index)
        machine = _ordered_machine(config, hierarchy, space, engine, unit_cls)
        machine.build(dispatcher, walker, producer)

        base = probe_column.region.base
        regs = dispatcher.config_registers

        def dispatch_config(unit_index: int, unit_stride: int):
            first = unit_index
            count = 0 if first >= probes else \
                (probes - first + unit_stride - 1) // unit_stride
            return {
                regs["key_cursor"]: base + first * key_bytes,
                regs["key_count"]: count,
                regs["root"]: index.first_leaf,
            }

        if widx.mode == "shared":
            machine.configure_unit("dispatcher", dispatch_config(0, 1))
        else:
            for i in range(n):
                machine.configure_unit(f"dispatcher{i}", dispatch_config(i, n))
        walker_regs = walker.config_registers
        for i in range(n):
            machine.configure_unit(f"walker{i}", {
                walker_regs["meta_base"]: index.meta.base,
                walker_regs["meta_mask"]: index.meta_mask,
            })
        machine.configure_unit(
            "producer",
            {producer.config_registers["out_cursor"]: out_region.base})

        run = machine.run(expected_tuples=probes)
        return _ordered_outcome(
            space, machine, hierarchy, run, out_region, reference, validate,
            {"dispatcher": dispatcher, "walker": walker,
             "producer": producer}, "wormhole")
    finally:
        space.release(out_region)


def offload_wormhole_ranges(index, ranges, *,
                            config: SystemConfig = DEFAULT_CONFIG,
                            warm: bool = True,
                            validate: bool = True,
                            memory: Optional[MemoryHierarchy] = None,
                            engine=None, unit_cls=None) -> OffloadOutcome:
    """Accelerate multi-range wormhole scans: locate ``low``'s leaf via
    the MetaTrieHash, then stream the sorted leaf chain."""
    from ..db.btree import KEY_PAD
    from ..db.wormhole import WormholeIndex
    from .programs import (range_dispatcher_program,
                           wormhole_range_walker_program)

    if not isinstance(index, WormholeIndex):
        raise WidxFault("offload_wormhole_ranges expects a WormholeIndex")
    if config.widx.mode != "shared":
        raise WidxFault("range scans use the shared-dispatcher organization")
    ranges = [(int(low), int(high)) for low, high in ranges]
    if not ranges:
        raise WidxFault("need at least one range")
    for low, high in ranges:
        if not 0 <= low <= high < KEY_PAD:
            raise WidxFault(f"bad range [{low}, {high}]")

    space = index.space
    run_id = next(_offload_counter)

    reference: List[int] = []
    for low, high in ranges:
        reference.extend(payload for _key, payload
                         in index.range_scan(low, high))

    range_region = space.allocate(f"{index.name}:ranges{run_id}",
                                  max(64, 8 * len(ranges)), align=64)
    try:
        for offset, (low, high) in enumerate(ranges):
            space.memory.write_u32(range_region.base + 8 * offset, low)
            space.memory.write_u32(range_region.base + 8 * offset + 4, high)
        out_region = space.allocate(f"{index.name}:rout{run_id}",
                                    max(64, 8 * (len(reference) + 1)),
                                    align=64)
        try:
            dispatcher = range_dispatcher_program()
            walker = wormhole_range_walker_program(index.hash_spec)
            producer = producer_program(8)

            hierarchy = memory if memory is not None else _hierarchy_for(config)
            if warm:
                _warm_wormhole(hierarchy, index)
            machine = _ordered_machine(config, hierarchy, space, engine,
                                       unit_cls)
            machine.build(dispatcher, walker, producer)
            regs = dispatcher.config_registers
            machine.configure_unit("dispatcher", {
                regs["range_cursor"]: range_region.base,
                regs["range_count"]: len(ranges),
                regs["root"]: index.first_leaf,
            })
            walker_regs = walker.config_registers
            for i in range(config.widx.num_walkers):
                machine.configure_unit(f"walker{i}", {
                    walker_regs["meta_base"]: index.meta.base,
                    walker_regs["meta_mask"]: index.meta_mask,
                })
            machine.configure_unit(
                "producer",
                {producer.config_registers["out_cursor"]: out_region.base})

            run = machine.run(expected_tuples=len(ranges))
            return _ordered_outcome(
                space, machine, hierarchy, run, out_region, reference,
                validate, {"dispatcher": dispatcher, "walker": walker,
                           "producer": producer}, "wormhole range")
        finally:
            space.release(out_region)
    finally:
        space.release(range_region)


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
    from ..db.btree import BPlusTree
    from .programs import batched_tree_walker_program

    if not isinstance(tree, BPlusTree):
        raise WidxFault("offload_batched_tree expects a BPlusTree")
    if not probe_column.is_materialized:
        raise WidxFault("probe keys must be materialized in simulated memory")
    total_keys = len(probe_column.values)
    probes = total_keys if probes is None else min(probes, total_keys)
    probes = (probes // batch) * batch
    if probes < batch:
        raise WidxFault(f"need at least one whole batch of {batch} probes")
    batches = probes // batch

    # Batched descent is an autonomous-walker program: force the coupled
    # organization while keeping the caller's walker count.
    config = config.with_widx(mode="coupled")
    space = tree.space
    n = config.widx.num_walkers

    staged: List[int] = []
    for start in range(0, probes, batch):
        group = [int(probe_column.values[start + i]) for i in range(batch)]
        if sort_batches:
            group.sort()
        staged.extend(group)
    reference = []
    for key in staged:
        payload = tree.search(key)
        if payload is not None:
            reference.append(payload)

    run_id = next(_offload_counter)
    key_region = space.allocate(f"{tree.name}:bkeys{run_id}",
                                max(64, 4 * probes), align=64)
    try:
        for offset, key in enumerate(staged):
            space.memory.write_u32(key_region.base + 4 * offset, key)
        out_region = space.allocate(f"{tree.name}:bout{run_id}",
                                    max(64, 8 * (len(reference) + 1)),
                                    align=64)
        try:
            walker = batched_tree_walker_program(batch, stride_batches=n)
            producer = producer_program(8)

            hierarchy = memory if memory is not None else _hierarchy_for(config)
            if warm:
                hierarchy.warm_range(tree.region.base, tree.footprint_bytes)
            machine = _ordered_machine(config, hierarchy, space, engine,
                                       unit_cls)
            machine.build(None, walker, producer)

            regs = walker.config_registers
            for i in range(n):
                first = i
                count = 0 if first >= batches else \
                    (batches - first + n - 1) // n
                machine.configure_unit(f"walker{i}", {
                    regs["key_cursor"]: key_region.base + first * batch * 4,
                    regs["batch_count"]: count,
                    regs["root"]: tree.root,
                })
            machine.configure_unit(
                "producer",
                {producer.config_registers["out_cursor"]: out_region.base})

            run = machine.run(expected_tuples=probes)
            return _ordered_outcome(
                space, machine, hierarchy, run, out_region, reference,
                validate, {"walker": walker, "producer": producer},
                "batched tree")
        finally:
            space.release(out_region)
    finally:
        space.release(key_region)
