"""Measuring baseline-core indexing throughput (cycles per tuple).

Mirrors the paper's methodology: warm the caches with a prefix of probes
(SimFlex warm checkpoints), then measure the steady-state cycles/tuple over
the remaining probes, reporting a 95% confidence interval over batch means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..config import SystemConfig, DEFAULT_CONFIG
from ..db.column import Column
from ..db.hashtable import HashIndex
from ..mem.hierarchy import MemoryHierarchy
from ..obs import StatsRegistry
from ..sim.sampling import BatchStats
from .inorder import InOrderCore
from .ooo import OutOfOrderCore
from .trace import ProbeTraceGenerator
from .uops import Uop


def warm_hash_index(memory: MemoryHierarchy, index: HashIndex) -> None:
    """Functionally install an index's working set in the LLC (and TLB)."""
    memory.warm_range(index.buckets.base, index.buckets.size)
    used_node_bytes = index.footprint_bytes - index.buckets.size
    if used_node_bytes > 0:
        memory.warm_range(index.nodes.base, used_node_bytes)
    if index.layout.indirect and index.key_column is not None:
        region = index.key_column.region
        memory.warm_range(region.base, region.size)


@dataclass
class CoreTimingResult:
    """Indexing throughput of one baseline core run."""

    core: str
    cycles_per_tuple: float
    ci_half_width: float
    tuples: int
    total_cycles: float
    mem_stall_per_tuple: float
    tlb_stall_per_tuple: float
    l1_miss_ratio: float
    llc_miss_ratio: float
    stats: Optional[Dict[str, Any]] = None  # registry snapshot (to_dict)

    @property
    def relative_error(self) -> float:
        if self.cycles_per_tuple == 0:
            return 0.0
        return self.ci_half_width / self.cycles_per_tuple


def make_core(core: str, config: SystemConfig, memory: MemoryHierarchy):
    """The baseline core model ``core`` (``"ooo"`` or ``"inorder"``)."""
    if core == "ooo":
        return OutOfOrderCore(config.ooo, memory)
    if core == "inorder":
        return InOrderCore(config.inorder, memory)
    raise ValueError(f"unknown core model {core!r} (want 'ooo' or 'inorder')")


def run_probe_loop(model, memory: MemoryHierarchy, core: str,
                   traces: Iterable[List[Uop]], *, warmup_traces: int,
                   per_trace: int, batch_size: int) -> CoreTimingResult:
    """Stream ``traces`` (each covering ``per_trace`` probes) through a
    core model and reduce the run to a :class:`CoreTimingResult`.

    The first ``warmup_traces`` traces only warm the machine; each later
    trace adds its cycles as one sample to batch means over
    ``batch_size`` traces.
    """
    stats = BatchStats(batch_size=batch_size)
    measured_tuples = 0
    measure_start = 0.0
    for trace_number, uops in enumerate(traces):
        before = model.completion_time
        model.execute(uops)
        if trace_number == warmup_traces - 1:
            measure_start = model.completion_time
        elif trace_number >= warmup_traces:
            stats.add(model.completion_time - before)
            measured_tuples += per_trace

    total = model.completion_time - measure_start
    mean, half = stats.interval()
    registry = StatsRegistry()
    model.register_into(registry, f"cpu.{core}")
    memory.register_into(registry, "mem")
    tuples_run = max(1, measured_tuples + warmup_traces * per_trace)
    return CoreTimingResult(
        core=core,
        cycles_per_tuple=total / measured_tuples,
        ci_half_width=half / per_trace,
        tuples=measured_tuples,
        total_cycles=total,
        mem_stall_per_tuple=model.mem_stall_cycles / max(1, model.uops_executed)
        * (model.uops_executed / tuples_run),
        tlb_stall_per_tuple=model.tlb_stall_cycles / tuples_run,
        l1_miss_ratio=memory.stats.l1d.miss_ratio,
        llc_miss_ratio=memory.stats.llc.miss_ratio,
        stats=registry.to_dict(),
    )


def measure_indexing(index: HashIndex, probe_keys: Column, *,
                     core: str = "ooo",
                     config: SystemConfig = DEFAULT_CONFIG,
                     warmup_probes: int = 512,
                     measure_probes: Optional[int] = None,
                     rows: Optional[Sequence[int]] = None,
                     batch_size: int = 128,
                     warm_index: bool = True) -> CoreTimingResult:
    """Run the probe loop on a baseline core model; return cycles/tuple.

    ``warm_index`` mimics the paper's warmed-cache checkpoints: the index
    (buckets, used overflow nodes and — for indirect layouts — the base key
    column) is functionally installed in the LLC before timing starts, so
    compulsory misses do not masquerade as capacity misses.  Indexes larger
    than the LLC still miss, via LRU, exactly as in steady state.
    """
    memory = MemoryHierarchy(config)
    if warm_index:
        warm_hash_index(memory, index)
    model = make_core(core, config, memory)

    generator = ProbeTraceGenerator(index, probe_keys)
    total_rows = len(probe_keys.values)
    if rows is None:
        limit = total_rows if measure_probes is None else min(
            total_rows, warmup_probes + measure_probes)
        rows = range(limit)
    rows = list(rows)
    if len(rows) <= warmup_probes:
        raise ValueError(
            f"need more than {warmup_probes} probes to measure after warm-up")
    return run_probe_loop(model, memory, core, generator.stream(rows),
                          warmup_traces=warmup_probes, per_trace=1,
                          batch_size=batch_size)
