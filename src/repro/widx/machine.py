"""WidxMachine: wiring units into the Figure 3 / Figure 6 organizations.

Three organizations, matching the paper's design evolution:

* ``coupled`` (Figure 3a/3b): N autonomous walkers run the whole probe
  loop (inline hashing), striding the key table.
* ``private`` (Figure 3c): N dispatcher/walker pairs; each dispatcher
  hashes a stride of the key table and feeds its own walker through a
  2-entry queue.
* ``shared`` (Figure 3d / Figure 6, the Widx design): one dispatcher
  hashes every key and feeds all walkers through a shared hashed-key
  buffer of N x 2 entries; walkers funnel matches to a single output
  producer.

All units share one memory hierarchy (the host core's TLB and L1-D — the
paper's tight coupling) and are co-simulated on one event engine, so port,
MSHR and bandwidth contention between units is modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ..config import SystemConfig
from ..errors import ConfigError, WidxFault
from ..mem.hierarchy import MemoryHierarchy
from ..mem.physmem import PhysicalMemory
from ..sim.engine import Engine, Process
from ..sim.events import Event
from ..sim.resources import QUEUE_CLOSED, BoundedQueue
from ..sim.sanitize import hierarchy_pools, sanitize_run
from ..sim.watchdog import Watchdog
from .programs import GeneratedProgram
from .unit import UnitCycleBreakdown, UnitStats, WidxUnit

#: Fault kinds a unit can suffer mid-offload.
FAULT_KINDS = ("fail-stop", "stall")


@dataclass(frozen=True)
class UnitFault:
    """One injected unit fault: ``unit`` dies (or wedges) at ``cycle``.

    ``fail-stop`` kills the unit's process outright; in the shared
    organization a walker's death is *survivable* — its in-flight hashed
    key is salvaged back onto the shared queue for the surviving walkers
    — while a dispatcher/producer death, a private/coupled walker death,
    or the last walker's death aborts the whole offload (raised as
    :class:`~repro.errors.WidxFault` after the run drains).  ``stall``
    freezes the unit forever without completing it, so the run wedges
    and surfaces through the engine's deadlock detection
    (:class:`~repro.errors.SimulationHang`) — the watchdog path.
    """

    unit: str
    cycle: float
    kind: str = "fail-stop"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {FAULT_KINDS}")
        if self.cycle < 0:
            raise ConfigError(
                f"fault cycle must be >= 0, got {self.cycle!r}")


@dataclass
class WidxRunResult:
    """Outcome of one Widx offload run."""

    total_cycles: float
    tuples: int
    matches: int
    config_cycles: float
    unit_stats: Dict[str, UnitStats] = field(default_factory=dict)

    @property
    def cycles_per_tuple(self) -> float:
        if self.tuples == 0:
            return 0.0
        return self.total_cycles / self.tuples

    def walker_breakdown(self) -> UnitCycleBreakdown:
        """Aggregate walker cycle breakdown (the Figure 8a/9 bars).

        Walker time not accounted by Comp/Mem/TLB/queue-stall is the time
        the walker spent waiting for the dispatcher (Idle); we additionally
        fold each walker's end-of-run slack into Idle so the bars of all
        walkers cover the same wall-clock window, as in the paper.
        """
        merged = UnitCycleBreakdown()
        count = 0
        for name, stats in self.unit_stats.items():
            if name.startswith("walker"):
                breakdown = stats.cycles
                slack = max(0.0, self.total_cycles - breakdown.total)
                breakdown = UnitCycleBreakdown(
                    comp=breakdown.comp, mem=breakdown.mem,
                    tlb=breakdown.tlb, idle=breakdown.idle + slack,
                    queue=breakdown.queue)
                merged = merged.merged(breakdown)
                count += 1
        if count == 0:
            return merged
        return merged.scaled(1.0 / count)

    def walker_cycles_per_tuple(self) -> UnitCycleBreakdown:
        """Per-tuple walker breakdown, the exact Y axis of Figures 8a/9."""
        if self.tuples == 0:
            return UnitCycleBreakdown()
        return self.walker_breakdown().scaled(1.0 / self.tuples)


class WidxMachine:
    """Builds, configures and runs one Widx organization."""

    def __init__(self, config: SystemConfig, hierarchy: MemoryHierarchy,
                 physmem: PhysicalMemory,
                 engine: Optional[Engine] = None,
                 tracer=None, unit_cls: type = WidxUnit) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.physmem = physmem
        # Several machines may co-simulate on one engine (multi-core CMP).
        self.engine = engine if engine is not None else Engine()
        self.tracer = tracer
        # Injectable unit implementation: the differential tests and the
        # benchmarks build machines from ReferenceWidxUnit.
        self.unit_cls = unit_cls
        self.units: Dict[str, WidxUnit] = {}
        self._autonomous: List[WidxUnit] = []
        self._walkers: List[WidxUnit] = []
        self._producer: Optional[WidxUnit] = None
        self._key_queues: List[BoundedQueue] = []
        self._out_queue: Optional[BoundedQueue] = None
        self._built = False
        # Fault-injection state (run(faults=...)).
        self._procs: Dict[str, Process] = {}
        self._dead: Set[str] = set()
        self._faults_applied = 0
        self._fault_abort: Optional[UnitFault] = None
        self._finished_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def build(self, dispatcher: Optional[GeneratedProgram],
              walker: GeneratedProgram,
              producer: GeneratedProgram) -> None:
        """Instantiate units and queues for the configured mode.

        ``dispatcher`` must be None for ``coupled`` mode (the walker
        program hashes inline) and a generated dispatcher otherwise.  In
        ``private`` mode the same dispatcher program is instantiated once
        per walker (each configured with a strided cursor).
        """
        widx = self.config.widx
        mode = widx.mode
        n = widx.num_walkers
        if mode == "coupled":
            if dispatcher is not None:
                raise ConfigError("coupled mode takes no dispatcher program")
        elif dispatcher is None:
            raise ConfigError(f"{mode} mode needs a dispatcher program")

        out_capacity = max(1, n * widx.queue_entries)
        self._out_queue = BoundedQueue(self.engine, out_capacity, "to-producer")

        if mode == "shared":
            shared = BoundedQueue(self.engine, n * widx.queue_entries, "hashed-keys")
            self._key_queues = [shared]
            unit = self.unit_cls("dispatcher", dispatcher.program, self.engine,
                            self.hierarchy, self.physmem, out_queue=shared)
            self.units["dispatcher"] = unit
            self._autonomous.append(unit)
            for i in range(n):
                walker_unit = self.unit_cls(f"walker{i}", walker.program, self.engine,
                                       self.hierarchy, self.physmem,
                                       in_queue=shared, out_queue=self._out_queue)
                self.units[f"walker{i}"] = walker_unit
                self._walkers.append(walker_unit)
        elif mode == "private":
            for i in range(n):
                queue = BoundedQueue(self.engine, widx.queue_entries,
                                     f"hashed-keys{i}")
                self._key_queues.append(queue)
                d_unit = self.unit_cls(f"dispatcher{i}", dispatcher.program,
                                  self.engine, self.hierarchy, self.physmem,
                                  out_queue=queue)
                self.units[f"dispatcher{i}"] = d_unit
                self._autonomous.append(d_unit)
                w_unit = self.unit_cls(f"walker{i}", walker.program, self.engine,
                                  self.hierarchy, self.physmem,
                                  in_queue=queue, out_queue=self._out_queue)
                self.units[f"walker{i}"] = w_unit
                self._walkers.append(w_unit)
        else:  # coupled
            for i in range(n):
                w_unit = self.unit_cls(f"walker{i}", walker.program, self.engine,
                                  self.hierarchy, self.physmem,
                                  out_queue=self._out_queue)
                self.units[f"walker{i}"] = w_unit
                self._walkers.append(w_unit)
                self._autonomous.append(w_unit)

        self._producer = self.unit_cls("producer", producer.program, self.engine,
                                  self.hierarchy, self.physmem,
                                  in_queue=self._out_queue)
        self.units["producer"] = self._producer
        self._built = True
        if self.tracer is not None:
            self._attach_tracer(self.tracer)

    def attach_trail(self, recorder) -> None:
        """Wire per-invocation trail capture to every dispatched walker.

        Only queue-driven walkers get a recorder: each of their
        invocations is one probe key, so one trail is one request's
        traversal path.  Autonomous units (the dispatcher, coupled-mode
        walkers) run a single invocation spanning the whole key table —
        a "trail" of theirs would be the entire run, so they stay
        unhooked and pay nothing.
        """
        if not self._built:
            raise ConfigError("call build() before attach_trail()")
        for unit in self._walkers:
            if unit in self._autonomous:
                continue
            unit.set_trail(recorder)

    def _attach_tracer(self, tracer) -> None:
        """Wire every unit, inter-unit queue and hierarchy pool to ``tracer``."""
        for unit in self.units.values():
            unit.set_tracer(tracer)
        for queue in self._key_queues + [self._out_queue]:
            if queue is not None:
                queue.set_tracer(tracer, f"queue.{queue.name}")
        for name, pool in hierarchy_pools(self.hierarchy):
            pool.set_tracer(tracer, name)

    def configure_unit(self, name: str, values: Dict[int, int]) -> None:
        """Write a unit's memory-mapped configuration registers."""
        self.units[name].configure(values)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def configuration_cycles(self) -> float:
        """Cost of loading the Widx control block (Section 4.3).

        The host core writes the control-block address, then Widx issues a
        series of loads for each unit's instructions and constants.  We
        charge one cycle per instruction word and constant, plus a fixed
        start-up cost; the paper notes this is amortized over millions of
        probes — the tests assert that property.
        """
        total = 50.0  # config-register writes + kick-off
        if self.config.widx.placement == "pim":
            # Near-memory walkers are armed over the host<->PIM command
            # interface: the control block and kick-off cross the memory
            # channel instead of staying on-chip.  Charged here (per
            # offload, alongside the control-block load) so it amortizes
            # over bulk probes but stays strictly additive on every
            # serving batch's critical path.
            total += self.config.pim.launch_cycles
        for unit in self.units.values():
            total += len(unit.program.instructions)
            total += len(unit.program.constants)
        return total

    def launch(self) -> None:
        """Register every unit process on the engine (without running it).

        Used directly when several machines co-simulate on a shared engine
        (the multi-core CMP); single-machine callers use :meth:`run`.
        """
        if not self._built:
            raise ConfigError("call build() before launch()")
        engine = self.engine
        for queue in self._key_queues + [self._out_queue]:
            if queue is not None:
                engine.monitor_resource(queue.name, queue)
        for name, pool in hierarchy_pools(self.hierarchy):
            engine.monitor_resource(name, pool)
        walker_procs: List[Process] = []
        autonomous_procs: List[Process] = []
        for unit in self._walkers:
            if unit in self._autonomous:
                continue
            proc = engine.process(unit.run(), unit.name)
            walker_procs.append(proc)
            self._procs[unit.name] = proc
        for unit in self._autonomous:
            proc = engine.process(unit.run(), unit.name)
            autonomous_procs.append(proc)
            self._procs[unit.name] = proc
        self._procs["producer"] = engine.process(self._producer.run(),
                                                 "producer")

        # Close the hashed-key queues once every autonomous unit finishes,
        # and the producer queue once every walker finishes.
        self._chain_close(autonomous_procs, self._key_queues)
        self._chain_close(autonomous_procs + walker_procs, [self._out_queue])

    def register_into(self, registry, prefix: str = "widx",
                      queue_prefix: str = "sim.queue") -> None:
        """Publish per-unit stats and inter-unit queue counters.

        ``queue_prefix`` is separate because queue names repeat across
        machines (every machine has a "to-producer"); the CMP passes a
        per-core prefix to keep paths unique.
        """
        for name, unit in self.units.items():
            unit.stats.register_into(registry, f"{prefix}.{name}")
        for queue in self._key_queues + [self._out_queue]:
            if queue is not None:
                queue.register_into(registry, f"{queue_prefix}.{queue.name}")

    def collect(self, expected_tuples: int) -> WidxRunResult:
        """Gather results after the (shared) engine has run to completion."""
        matches = int(self._producer.stats.invocations)
        # With faults armed, an injection scheduled past the end of the
        # work leaves the engine clock at the injection time, not the
        # completion time; the recorded all-units-done instant is the
        # honest makespan.
        total = (self._finished_at
                 if self._finished_at is not None else self.engine.now)
        return WidxRunResult(
            total_cycles=total,
            tuples=expected_tuples,
            matches=matches,
            config_cycles=self.configuration_cycles(),
            unit_stats={name: unit.stats for name, unit in self.units.items()},
        )

    def run(self, expected_tuples: int,
            sanitize: bool = True,
            faults: Iterable[UnitFault] = ()) -> WidxRunResult:
        """Run the offload to completion; returns timing and stats.

        A default-limits :class:`~repro.sim.watchdog.Watchdog` (unless
        the engine already has one) polices livelock and budget overruns
        during the run; afterwards the end-of-run sanitizer verifies the
        engine drained, every inter-unit queue emptied, and no MSHR/TLB
        pool leaked — so a wedged run raises instead of reporting garbage.

        ``faults`` injects :class:`UnitFault` events mid-run.  A
        survivable fault (shared-mode walker death with survivors)
        degrades the run; an unsurvivable one raises
        :class:`~repro.errors.WidxFault` once the engine drains, and a
        stall raises :class:`~repro.errors.SimulationHang` — never a
        silent wrong answer.
        """
        self.launch()
        faults = tuple(faults)
        if faults:
            self._arm_faults(faults)
        if self.engine.watchdog is None:
            Watchdog().attach(self.engine)
        self.engine.run()
        if self._fault_abort is not None:
            fault = self._fault_abort
            raise WidxFault(
                f"offload aborted: {fault.kind} of {fault.unit!r} at cycle "
                f"{fault.cycle:g} is unrecoverable in "
                f"{self.config.widx.mode!r} mode")
        if self._faults_applied:
            for queue in self._key_queues + [self._out_queue]:
                if queue is not None and len(queue) > 0:
                    raise WidxFault(
                        f"in-flight work lost to a fault: queue "
                        f"{queue.name!r} still holds {len(queue)} item(s) "
                        f"after the run drained")
        if sanitize:
            sanitize_run(self.engine,
                         self._key_queues + [self._out_queue],
                         self.hierarchy)
        return self.collect(expected_tuples)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def _arm_faults(self, faults: Iterable[UnitFault]) -> None:
        """Schedule each fault's injection and the makespan tracker."""
        engine = self.engine
        for fault in faults:
            if fault.unit not in self._procs:
                raise ConfigError(
                    f"cannot inject fault into unknown unit {fault.unit!r}; "
                    f"units are {sorted(self._procs)}")
            # Default arg binds the current fault (late binding would
            # deliver the last fault to every callback).
            engine.schedule_at(fault.cycle,
                               lambda fault=fault: self._apply_fault(fault))
        # Record when all units are done: injections scheduled past that
        # instant still advance the engine clock, but must not inflate
        # the reported makespan (see collect()).
        state = {"remaining": len(self._procs)}

        def on_done(_event) -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                self._finished_at = engine.now

        for proc in self._procs.values():
            proc.add_callback(on_done)

    def _live_walkers(self) -> List[WidxUnit]:
        """Walkers whose processes are still running (not dead, not done)."""
        return [unit for unit in self._walkers
                if unit.name not in self._dead
                and not self._procs[unit.name].triggered]

    def _apply_fault(self, fault: UnitFault) -> None:
        proc = self._procs[fault.unit]
        if proc.triggered or fault.unit in self._dead:
            return  # the unit already finished (or died): the fault missed
        self._faults_applied += 1
        self._dead.add(fault.unit)
        if fault.kind == "stall":
            # The unit wedges without completing: close chains never
            # fire, the queue drains, and the engine reports a deadlock
            # with this process named in the diagnostics.
            proc.suspend()
            return
        unit = self.units[fault.unit]
        # The dying unit is already in _dead, so _live_walkers() counts
        # only potential survivors.
        survivable = (self.config.widx.mode == "shared"
                      and unit in self._walkers
                      and unit not in self._autonomous
                      and len(self._live_walkers()) >= 1)
        if not survivable:
            self._fault_abort = fault
            self._abort_all()
            return
        self._salvage_walker(unit, proc)
        proc.terminate()

    def _salvage_walker(self, unit: WidxUnit, proc: Process) -> None:
        """Requeue a dying shared-mode walker's in-flight hashed key.

        Exact for single-emit traversals (hash probes with unique keys):
        either the walker had not yet emitted for its current key — the
        key goes back on the shared queue head for a surviving walker —
        or its emit is already committed to the output queue (put()
        delivers even when parked) and dropping the rest of the
        invocation loses nothing externally visible.
        """
        in_queue = unit.in_queue
        target = proc.waiting_on
        if isinstance(target, Event) and not target.triggered:
            # Parked in get(): withdraw the pending event so the next
            # put cannot hand a key to a corpse.  (A parked *put* — not
            # in the getter line — leaves its item to deliver normally.)
            in_queue.cancel_get(target)
            return
        if (isinstance(target, Event) and target.triggered
                and target.value is not None
                and target.value is not QUEUE_CLOSED
                and unit.current_item is None):
            # The handoff fired but the walker never woke to process the
            # key (its resume is scheduled behind this injection).
            in_queue.restore(target.value)
            return
        if unit.current_item is not None and unit.invocation_emits == 0:
            # Mid-traversal, nothing emitted: replay the key elsewhere.
            in_queue.restore(unit.current_item)

    def _abort_all(self) -> None:
        """Unrecoverable fault: fail-stop every unit and close every
        queue, so the run drains immediately instead of deadlocking."""
        for proc in self._procs.values():
            proc.terminate()
        for queue in self._key_queues + [self._out_queue]:
            if queue is not None:
                queue.close()

    @staticmethod
    def _chain_close(procs: List[Process], queues: List[Optional[BoundedQueue]]) -> None:
        remaining = len(procs)
        if remaining == 0:
            for queue in queues:
                if queue is not None:
                    queue.close()
            return
        state = {"remaining": remaining}

        def on_done(_event) -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                for queue in queues:
                    if queue is not None:
                        queue.close()

        for proc in procs:
            proc.add_callback(on_done)
