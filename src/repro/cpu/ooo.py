"""The out-of-order baseline core (Xeon-like: 4-wide, 128-entry ROB).

A limited-window dataflow model:

* uops dispatch in program order, ``issue_width`` per cycle, only when a
  ROB entry is free (the entry of the uop ``rob_entries`` earlier must have
  retired);
* a uop executes once its producers are done (dataflow), ALU ops in 1
  cycle, loads through the shared :class:`~repro.mem.MemoryHierarchy`;
* retirement is in order;
* a mispredicted branch squashes the front end: dispatch of younger uops
  resumes ``mispredict_penalty`` cycles after the branch resolves.

This is the standard first-order OoO model: it captures window-limited MLP
(the mechanism the paper credits for the OoO core's 2.2x advantage over
in-order on indexing) without simulating rename/issue queues.
"""

from __future__ import annotations

from typing import Iterable, List

from ..config import CoreConfig
from ..mem.hierarchy import MemoryHierarchy
from ..obs import Counter
from .uops import Uop, UopKind, dep_error

_LOAD = UopKind.LOAD
_STORE = UopKind.STORE
_BRANCH = UopKind.BRANCH


class OutOfOrderCore:
    """Streaming OoO timing model; feed uops, read back cycle counts."""

    def __init__(self, config: CoreConfig, memory: MemoryHierarchy,
                 mispredict_penalty: int = 20) -> None:
        if not config.out_of_order:
            raise ValueError("use InOrderCore for in-order configs")
        self.config = config
        self.memory = memory
        self.mispredict_penalty = mispredict_penalty
        self._all_done: List[float] = []   # completion time per stream position
        self._horizons: List[float] = []   # running max of completion times
        self._dispatch_time = 0.0
        self._dispatched_this_cycle = 0
        self._frontend_stall_until = 0.0
        self.uops_executed = Counter()
        self.loads_issued = Counter()
        self.mem_stall_cycles = Counter(0.0)
        self.tlb_stall_cycles = Counter(0.0)

    @property
    def now(self) -> float:
        return self._dispatch_time

    def register_into(self, registry, prefix: str) -> None:
        """Publish per-op execution counters under ``prefix``."""
        registry.register(f"{prefix}.uops_executed", self.uops_executed)
        registry.register(f"{prefix}.loads_issued", self.loads_issued)
        registry.register(f"{prefix}.mem_stall_cycles", self.mem_stall_cycles)
        registry.register(f"{prefix}.tlb_stall_cycles", self.tlb_stall_cycles)

    def execute(self, uops: Iterable[Uop]) -> None:
        """Execute a stream of uops (may be called repeatedly).

        The hot loop of every baseline-core measurement: configuration,
        memory entry points and core state live in locals for the whole
        call, and the counters accumulate locally and are written back
        in a ``finally`` — so after the call, or an exception in it, every
        observable value equals per-uop bookkeeping's.
        :class:`~repro.cpu.reference.ReferenceOutOfOrderCore` is the
        uop-by-uop twin the differential tests compare against.
        """
        all_done = self._all_done
        horizons = self._horizons
        append_done = all_done.append
        append_horizon = horizons.append
        memory = self.memory
        load = memory.load
        store = memory.store
        trap_cycles = memory.cfg.tlb.trap_cycles
        width = self.config.issue_width
        rob = self.config.rob_entries
        penalty = self.mispredict_penalty
        dispatch = self._dispatch_time
        slots = self._dispatched_this_cycle
        stall_until = self._frontend_stall_until
        position = len(all_done)
        horizon = horizons[-1] if horizons else 0.0
        uops_executed = self.uops_executed.value
        loads_issued = self.loads_issued.value
        mem_stall = self.mem_stall_cycles.value
        tlb_stall = self.tlb_stall_cycles.value
        try:
            for uop in uops:
                # Front end: one of ``width`` dispatch slots per cycle,
                # none before a squash refill completes.
                if dispatch < stall_until:
                    dispatch = stall_until
                    slots = 0
                if slots >= width:
                    dispatch += 1.0
                    slots = 0
                slots += 1
                # ROB: dispatch cannot pass the in-order retirement of
                # the uop ``rob`` positions earlier (its running horizon).
                if position >= rob:
                    gate = horizons[position - rob]
                    if gate > dispatch:
                        dispatch = gate
                        slots = 1
                ready = dispatch
                for dep in uop.deps:
                    if 0 <= dep < position:
                        done = all_done[dep]
                        if done > ready:
                            ready = done
                    else:
                        raise dep_error(position, dep)
                kind = uop.kind
                if kind is _LOAD:
                    result = load(uop.addr, ready)
                    done = result.complete
                    translation = result.tlb_stall
                    if translation > 0:
                        # Software-walked TLB: the miss traps to a handler
                        # on this core — flush, handle, replay.  Serializes
                        # the window (Widx instead stalls only the
                        # faulting unit).
                        done += trap_cycles
                        if done > stall_until:
                            stall_until = done
                        tlb_stall += translation
                    loads_issued += 1
                    waited = done - ready - 1.0
                    if waited > 0.0:
                        mem_stall += waited
                elif kind is _STORE:
                    # Stores retire through a store buffer; latency is hidden.
                    store(uop.addr, ready)
                    done = ready + 1.0
                else:
                    done = ready + uop.latency
                    if uop.mispredict and kind is _BRANCH:
                        squash = done + penalty
                        if squash > stall_until:
                            stall_until = squash
                append_done(done)
                if done > horizon:
                    horizon = done
                append_horizon(horizon)
                position += 1
                uops_executed += 1
        finally:
            self._dispatch_time = dispatch
            self._dispatched_this_cycle = slots
            self._frontend_stall_until = stall_until
            self.uops_executed.value = uops_executed
            self.loads_issued.value = loads_issued
            self.mem_stall_cycles.value = mem_stall
            self.tlb_stall_cycles.value = tlb_stall

    @property
    def completion_time(self) -> float:
        """Cycle at which every executed uop has retired."""
        return self._horizons[-1] if self._horizons else 0.0
