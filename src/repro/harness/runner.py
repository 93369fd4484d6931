"""Shared measurement machinery for the per-figure drivers.

Building a scaled index takes seconds and several figures reuse the same
measurements (Figure 10's speedups come from Figure 9's runs; Figure 11
aggregates both), so measurements are memoized in a process-wide
:class:`MeasurementCache`.  The cache can additionally be backed by a
persistent :class:`~repro.harness.cachestore.CacheStore`: on an in-memory
miss the store is consulted first, and freshly measured points are written
back, so repeated or resumed campaigns are near-instant.

Cache keys are content hashes over the full :class:`SystemConfig`, the
:class:`RunSettings` and the measurement point (see :func:`measurement_key`)
— never positional, so a store directory can be shared across
configurations, seeds and probe volumes without collisions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from ..config import SystemConfig, DEFAULT_CONFIG, stable_digest
from ..cpu.ordered import measure_ordered_indexing
from ..cpu.timing import CoreTimingResult, measure_indexing
from ..errors import (ConfigError, InvariantViolation, MeasurementFailed,
                      SimulationHang)
from ..mem.layout import AddressSpace
from ..obs import StatsRegistry
from ..serve.service import ServiceMeasurement, measure_service
from ..sim.watchdog import Watchdog, WatchdogLimits
from ..widx.offload import (OffloadOutcome, offload_batched_tree,
                            offload_probe, offload_tree_search,
                            offload_trie_search, offload_wormhole_search)
from ..widx.unit import UnitCycleBreakdown
from ..workloads.hashjoin_kernel import build_kernel_workload
from ..workloads.ordered_kernel import build_ordered_workload
from ..workloads.queryspec import QuerySpec, build_query_index
from .cachestore import (CacheDecodeError, CacheStore, decode_measurement,
                         encode_measurement)


@dataclass(frozen=True)
class RunSettings:
    """Probe-volume settings shared by an experiment campaign."""

    probes: int = 3_000
    warmup: int = 600
    seed: int = 42

    def __post_init__(self) -> None:
        # Mirrors the CLI's --probes/--warmup guard: direct constructors
        # must not be able to produce a zero/negative measured count.
        if self.probes <= 0:
            raise ConfigError(f"probes must be positive, got {self.probes}")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")
        if self.warmup >= self.probes:
            raise ConfigError(
                f"probes ({self.probes}) must exceed warmup ({self.warmup}); "
                f"nothing would be measured")

    @property
    def measured(self) -> int:
        return self.probes - self.warmup


DEFAULT_RUNS = RunSettings()

#: A lighter setting for unit tests and quick sanity runs.
QUICK_RUNS = RunSettings(probes=1_200, warmup=300)


def measurement_key(config: SystemConfig, runs: RunSettings,
                    point: Tuple) -> str:
    """Stable content hash identifying one measurement.

    ``point`` is the in-memory cache tuple, e.g. ``("baseline", "kernel",
    "Small", "ooo")`` or ``("widx", "query", "tpch:20", 4, "shared")``.
    The hash covers the complete system configuration and run settings, so
    any parameter change re-measures instead of aliasing.
    """
    return stable_digest({
        "config": config.canonical_dict(),
        "runs": asdict(runs),
        "point": list(point),
    })


@dataclass
class WorkloadMeasurement:
    """Everything measured for one workload (kernel size or query)."""

    name: str
    ooo: Optional[CoreTimingResult] = None
    inorder: Optional[CoreTimingResult] = None
    widx: Dict[int, OffloadOutcome] = field(default_factory=dict)

    def speedup(self, walkers: int) -> float:
        """Widx indexing speedup over the OoO baseline."""
        if self.ooo is None or walkers not in self.widx:
            raise KeyError(f"{self.name}: missing measurement for {walkers} walkers")
        return self.ooo.cycles_per_tuple / self.widx[walkers].cycles_per_tuple

    def walker_breakdown(self, walkers: int) -> UnitCycleBreakdown:
        """Per-tuple walker cycle breakdown at a walker count."""
        return self.widx[walkers].run.walker_cycles_per_tuple()


class MeasurementCache:
    """Memoizes workload builds and measurements across figure drivers.

    With a ``store``, the memory cache is write-through: misses consult the
    store before simulating, and fresh measurements are persisted.  A
    corrupt or stale store entry is silently discarded and re-measured; a
    transient store IO error (flaky NFS, disk pressure) is swallowed and
    counted rather than crashing a campaign — the store is an
    optimization, never a point of failure.

    ``watchdog_limits`` budgets each simulated measurement (livelock,
    cycle and wall-clock ceilings; see
    :class:`~repro.sim.watchdog.WatchdogLimits`).  Budgets are *not* part
    of the cache key: they bound how long a measurement may take, not what
    it computes.

    Points that exhausted their campaign retries are *poisoned* via
    :meth:`poison`: asking for one raises
    :class:`~repro.errors.MeasurementFailed` immediately, so a figure
    driver reports the failure instead of silently re-simulating (or
    re-hanging) in-process.
    """

    def __init__(self, config: SystemConfig = DEFAULT_CONFIG,
                 runs: RunSettings = DEFAULT_RUNS,
                 store: Optional[CacheStore] = None,
                 watchdog_limits: Optional[WatchdogLimits] = None) -> None:
        self.config = config
        self.runs = runs
        self.store = store
        self.watchdog_limits = watchdog_limits
        self._kernel_workloads: Dict[str, tuple] = {}
        self._query_workloads: Dict[str, tuple] = {}
        self._ordered_workloads: Dict[str, tuple] = {}
        self._measurements: Dict[Tuple, object] = {}
        self._poisoned: Dict[Tuple, str] = {}
        self.measured_points = 0   # simulated in this process
        self.store_hits = 0        # loaded from the persistent store
        self.store_errors = 0      # transient store IO errors survived

    # --- workload construction (cached) --------------------------------

    def kernel_workload(self, size: str):
        """Build (or reuse) one kernel size's index + probes."""
        if size not in self._kernel_workloads:
            self._kernel_workloads[size] = build_kernel_workload(
                size, self.runs.probes, seed=self.runs.seed)
        return self._kernel_workloads[size]

    def query_workload(self, spec: QuerySpec):
        """Build (or reuse) one DSS query's index + probes."""
        key = f"{spec.benchmark}:{spec.number}"
        if key not in self._query_workloads:
            self._query_workloads[key] = build_query_index(
                spec, probe_count=self.runs.probes, seed=self.runs.seed)
        return self._query_workloads[key]

    def ordered_workload(self, name: str):
        """Build (or reuse) one ordered-index workload.

        ``name`` is ``"<class>:<size>"``, e.g. ``"trie:Small"``.  The
        ``btree`` and ``batched`` classes build structurally identical
        trees but are memoized separately: each measurement must see the
        address layout a fresh build produces (hermeticity), not one
        shifted by another class's earlier allocations.
        """
        if name not in self._ordered_workloads:
            index_class, _, size = name.partition(":")
            self._ordered_workloads[name] = build_ordered_workload(
                index_class, size, self.runs.probes, seed=self.runs.seed)
        return self._ordered_workloads[name]

    # --- cache plumbing -------------------------------------------------

    def point_key(self, point: Tuple) -> str:
        """The persistent-store key for one in-memory cache tuple."""
        return measurement_key(self.config, self.runs, point)

    def fetch(self, point: Tuple):
        """A cached result (memory, then store), or ``None``."""
        if point in self._measurements:
            return self._measurements[point]
        if self.store is not None:
            try:
                payload = self.store.get(self.point_key(point))
            except OSError:
                self.store_errors += 1
                return None  # transient store trouble == cache miss
            if payload is not None:
                try:
                    result = decode_measurement(payload)
                except CacheDecodeError:
                    return None  # treat like corruption: re-measure
                self._measurements[point] = result
                self.store_hits += 1
                return result
        return None

    def install(self, point: Tuple, result: object,
                persist: bool = True) -> None:
        """Adopt a result (measured here or by a campaign worker)."""
        self._measurements[point] = result
        if persist and self.store is not None:
            try:
                self.store.put(self.point_key(point), encode_measurement(result))
            except OSError:
                self.store_errors += 1  # keep the in-memory copy; move on

    # --- poisoning ------------------------------------------------------

    def poison(self, point: Tuple, reason: str) -> None:
        """Mark a point as failed-beyond-retry; measuring it raises."""
        self._poisoned[point] = reason

    def clear_poison(self, point: Tuple) -> None:
        """Give a failed point another chance (a new campaign starts)."""
        self._poisoned.pop(point, None)

    @property
    def poisoned(self) -> Dict[Tuple, str]:
        return dict(self._poisoned)

    def _check_poisoned(self, point: Tuple) -> None:
        reason = self._poisoned.get(point)
        if reason is not None:
            raise MeasurementFailed(
                f"measurement {point!r} failed its campaign retries and is "
                f"poisoned: {reason}")

    def _watchdog(self) -> Optional[Watchdog]:
        if self.watchdog_limits is None:
            return None
        return Watchdog(self.watchdog_limits)

    # --- measurements (cached) ------------------------------------------

    def baseline(self, kind: str, name: str, core: str) -> CoreTimingResult:
        """Measure (or reuse) a baseline core on one workload."""
        point = ("baseline", kind, name, core)
        result = self.fetch(point)
        if result is None:
            self._check_poisoned(point)
            index, probes = (self.kernel_workload(name) if kind == "kernel"
                             else self.query_workload(self._spec_by_name(name)))
            result = measure_indexing(
                index, probes, core=core, config=self.config,
                warmup_probes=self.runs.warmup,
                measure_probes=self.runs.measured)
            self.measured_points += 1
            self.install(point, result)
        return result  # type: ignore[return-value]

    def widx(self, kind: str, name: str, walkers: int,
             mode: str = "shared") -> OffloadOutcome:
        """Measure (or reuse) a Widx offload on one workload."""
        point = ("widx", kind, name, walkers, mode)
        result = self.fetch(point)
        if result is None:
            self._check_poisoned(point)
            index, probes = (self.kernel_workload(name) if kind == "kernel"
                             else self.query_workload(self._spec_by_name(name)))
            config = self.config.with_widx(num_walkers=walkers, mode=mode)
            try:
                result = offload_probe(
                    index, probes, config=config, probes=self.runs.probes,
                    watchdog=self._watchdog())
            except (SimulationHang, InvariantViolation) as exc:
                if hasattr(exc, "add_note"):
                    exc.add_note(f"while measuring point {point!r}")
                raise
            self.measured_points += 1
            self.install(point, result)
        return result  # type: ignore[return-value]

    def pim(self, kind: str, name: str, walkers: int, banks: int,
            mode: str = "shared") -> OffloadOutcome:
        """Measure (or reuse) a near-memory (bank-side walker) offload."""
        point = ("pim", kind, name, walkers, mode, banks)
        result = self.fetch(point)
        if result is None:
            self._check_poisoned(point)
            index, probes = (self.kernel_workload(name) if kind == "kernel"
                             else self.query_workload(self._spec_by_name(name)))
            config = self.config.with_widx(
                num_walkers=walkers, mode=mode,
                placement="pim").with_pim(num_banks=banks)
            try:
                result = offload_probe(
                    index, probes, config=config, probes=self.runs.probes,
                    watchdog=self._watchdog())
            except (SimulationHang, InvariantViolation) as exc:
                if hasattr(exc, "add_note"):
                    exc.add_note(f"while measuring point {point!r}")
                raise
            self.measured_points += 1
            self.install(point, result)
        return result  # type: ignore[return-value]

    def index(self, name: str, core: str, walkers: int = 0,
              mode: str = "") -> object:
        """Measure (or reuse) one ordered-index zoo point.

        ``name`` is ``"<class>:<size>"``.  ``core`` selects a baseline
        core model (``"ooo"``/``"inorder"``, returning a
        :class:`CoreTimingResult`) or ``"widx"`` (returning an
        :class:`OffloadOutcome` from the class's offload driver).
        """
        point = ("index", "ordered", name, core, walkers, mode)
        result = self.fetch(point)
        if result is None:
            self._check_poisoned(point)
            index_class, _, _size = name.partition(":")
            index, probes = self.ordered_workload(name)
            if core in ("ooo", "inorder"):
                result = measure_ordered_indexing(
                    index, probes, index_class=index_class, core=core,
                    config=self.config, warmup_probes=self.runs.warmup,
                    measure_probes=self.runs.measured)
            elif core == "widx":
                config = self.config.with_widx(
                    num_walkers=walkers, mode=mode or "shared")
                offload = {"btree": offload_tree_search,
                           "trie": offload_trie_search,
                           "wormhole": offload_wormhole_search,
                           "batched": offload_batched_tree}[index_class]
                try:
                    result = offload(index, probes, config=config,
                                     probes=self.runs.probes)
                except (SimulationHang, InvariantViolation) as exc:
                    if hasattr(exc, "add_note"):
                        exc.add_note(f"while measuring point {point!r}")
                    raise
            else:
                raise ConfigError(
                    f"unknown ordered-index core {core!r} "
                    f"(want 'ooo', 'inorder' or 'widx')")
            self.measured_points += 1
            self.install(point, result)
        return result

    def service(self, kind: str, name: str, backend: str, batch_keys: int,
                walkers: int = 0, mode: str = "") -> ServiceMeasurement:
        """Measure (or reuse) one serving-layer service-time calibration:
        the cycles ``backend`` spends serving a ``batch_keys``-key probe
        batch on one workload (see :mod:`repro.serve.service`)."""
        point = ("serve", kind, name, backend, walkers, mode, batch_keys)
        result = self.fetch(point)
        if result is None:
            self._check_poisoned(point)
            if kind == "kernel":
                index, probes = self.kernel_workload(name)
            elif kind == "ordered":
                index, probes = self.ordered_workload(name)
            else:
                index, probes = self.query_workload(self._spec_by_name(name))
            try:
                result = measure_service(
                    index, probes, backend=backend, batch_keys=batch_keys,
                    config=self.config, walkers=walkers, mode=mode,
                    watchdog=self._watchdog())
            except (SimulationHang, InvariantViolation) as exc:
                if hasattr(exc, "add_note"):
                    exc.add_note(f"while measuring point {point!r}")
                raise
            result.kind = kind
            result.name = name
            self.measured_points += 1
            self.install(point, result)
        return result  # type: ignore[return-value]

    def merged_stats(self) -> StatsRegistry:
        """One registry merging every cached measurement's stats snapshot.

        Each measurement carries the :meth:`~repro.obs.StatsRegistry.to_dict`
        snapshot of the simulation that produced it, whether it was measured
        in this process, by a campaign worker, or loaded from the persistent
        store — so serial, parallel and cache-hit campaigns all merge to the
        same totals.  Points are merged in a deterministic order.
        """
        registry = StatsRegistry()
        for point in sorted(self._measurements, key=repr):
            snapshot = getattr(self._measurements[point], "stats", None)
            if snapshot:
                registry.merge(snapshot)
        return registry

    def _spec_by_name(self, name: str) -> QuerySpec:
        from ..workloads.tpch import TPCH_QUERIES
        from ..workloads.tpcds import TPCDS_QUERIES
        for spec in TPCH_QUERIES + TPCDS_QUERIES:
            if f"{spec.benchmark}:{spec.number}" == name:
                return spec
        raise KeyError(f"unknown query {name!r}")


def measure_kernel(cache: MeasurementCache, size: str,
                   walker_counts: Iterable[int] = (1, 2, 4),
                   ) -> WorkloadMeasurement:
    """Measure one kernel size on the OoO baseline and Widx configs."""
    result = WorkloadMeasurement(name=size)
    result.ooo = cache.baseline("kernel", size, "ooo")
    for walkers in walker_counts:
        result.widx[walkers] = cache.widx("kernel", size, walkers)
    return result


def measure_query(cache: MeasurementCache, spec: QuerySpec,
                  walker_counts: Iterable[int] = (1, 2, 4),
                  include_inorder: bool = False) -> WorkloadMeasurement:
    """Measure one DSS query on the baselines and Widx configs."""
    name = f"{spec.benchmark}:{spec.number}"
    result = WorkloadMeasurement(name=spec.label)
    result.ooo = cache.baseline("query", name, "ooo")
    if include_inorder:
        result.inorder = cache.baseline("query", name, "inorder")
    for walkers in walker_counts:
        result.widx[walkers] = cache.widx("query", name, walkers)
    return result


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (raises on an empty sequence or non-positive value)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of nothing")
    total = 0.0
    for value in values:
        if value <= 0:
            raise ValueError(
                f"geomean requires positive values, got {value!r}")
        total += math.log(value)
    return math.exp(total / len(values))
