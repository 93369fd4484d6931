"""The in-order comparison core (Cortex-A8-like: 2-wide).

The in-order pipeline issues uops in program order and stalls on
read-after-write hazards, with the A8's documented restrictions:

* the second issue slot cannot take a memory op (one load/store per cycle);
* L1 load-to-use is one cycle longer than the Xeon-like core's;
* a load that misses the L1 blocks the pipeline until the fill returns
  (no hit-under-miss, no miss-under-miss — single-entry miss handling);
* branch mispredicts flush the 13-stage pipeline.

These are the mechanisms behind the paper's observation that the in-order
core is ~2.2x slower than the OoO baseline on indexing: it cannot expose
inter-key MLP and pays full memory latency on every chain access.
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


class InOrderCore:
    """Streaming in-order timing model."""

    def __init__(self, config: CoreConfig, memory: MemoryHierarchy,
                 mispredict_penalty: int = 13,
                 load_use_penalty: int = 1) -> None:
        if config.out_of_order:
            raise ValueError("use OutOfOrderCore for OoO configs")
        self.config = config
        self.memory = memory
        self.mispredict_penalty = mispredict_penalty
        self.load_use_penalty = load_use_penalty
        self._last_mem_issue = -1.0
        self._all_done: List[float] = []
        self._issue_time = 0.0
        self._issued_this_cycle = 0
        self._last_miss_done = 0.0
        self.uops_executed = Counter()
        self.loads_issued = Counter()
        self.mem_stall_cycles = Counter(0.0)
        self.tlb_stall_cycles = Counter(0.0)
        self._completion = 0.0

    def register_into(self, registry, prefix: str) -> None:
        """Publish per-op execution counters under ``prefix``."""
        registry.register(f"{prefix}.uops_executed", self.uops_executed)
        registry.register(f"{prefix}.loads_issued", self.loads_issued)
        registry.register(f"{prefix}.mem_stall_cycles", self.mem_stall_cycles)
        registry.register(f"{prefix}.tlb_stall_cycles", self.tlb_stall_cycles)

    def execute(self, uops: Iterable[Uop]) -> None:
        """Execute a stream of uops (may be called repeatedly).

        Same local-state hot loop as
        :meth:`~repro.cpu.ooo.OutOfOrderCore.execute`: state and counters
        live in locals and are written back in a ``finally``;
        :class:`~repro.cpu.reference.ReferenceInOrderCore` is the
        uop-by-uop twin.
        """
        all_done = self._all_done
        append_done = all_done.append
        memory = self.memory
        load = memory.load
        store = memory.store
        l1_array = memory.l1d.array
        block_bits = l1_array.block_bits
        l1_present = l1_array.present
        trap_cycles = memory.cfg.tlb.trap_cycles
        width = self.config.issue_width
        penalty = self.mispredict_penalty
        load_use = self.load_use_penalty
        issue = self._issue_time
        slots = self._issued_this_cycle
        last_mem_issue = self._last_mem_issue
        last_miss_done = self._last_miss_done
        completion = self._completion
        position = len(all_done)
        uops_executed = self.uops_executed.value
        loads_issued = self.loads_issued.value
        mem_stall = self.mem_stall_cycles.value
        tlb_stall = self.tlb_stall_cycles.value
        try:
            for uop in uops:
                if slots >= width:
                    issue += 1.0
                    slots = 0
                slots += 1
                ready = issue
                # In-order issue stalls until producers complete.
                for dep in uop.deps:
                    if 0 <= dep < position:
                        done = all_done[dep]
                        if done > ready:
                            ready = done
                    else:
                        raise dep_error(position, dep)
                if ready > issue:
                    # The pipeline stalled; later uops cannot issue earlier.
                    issue = ready
                    slots = 1
                kind = uop.kind
                if kind is _LOAD or kind is _STORE:
                    # Only one of the two issue slots handles memory ops.
                    if ready <= last_mem_issue:
                        ready = last_mem_issue + 1.0
                        if ready > issue:
                            issue = ready
                            slots = 1
                    last_mem_issue = ready
                    if kind is _LOAD:
                        start = ready
                        # Single outstanding miss: a load that misses the
                        # L1 waits for the previous miss to complete.  We
                        # conservatively apply the gate before knowing
                        # hit/miss only when the block is not L1-resident.
                        if (not l1_present(uop.addr >> block_bits)
                                and last_miss_done > start):
                            start = last_miss_done
                        result = load(uop.addr, start)
                        done = result.complete + load_use
                        translation = result.tlb_stall
                        if translation > 0:
                            # Software TLB-miss trap runs on the core (see
                            # ooo.py).
                            done += trap_cycles
                            if done > issue:
                                issue = done
                            slots = 0
                            tlb_stall += translation
                        if result.level != "L1":
                            # A8-style blocking miss: the pipeline stalls
                            # until the fill returns; no hit-under-miss, no
                            # miss-under-miss.
                            last_miss_done = done
                            if done > issue:
                                issue = done
                            slots = 0
                        loads_issued += 1
                        waited = done - ready - 1.0
                        if waited > 0.0:
                            mem_stall += waited
                    else:
                        store(uop.addr, ready)
                        done = ready + 1.0
                else:
                    done = ready + uop.latency
                    if uop.mispredict and kind is _BRANCH:
                        refill = done + penalty
                        if refill > issue:
                            issue = refill
                            slots = 0
                append_done(done)
                if done > completion:
                    completion = done
                position += 1
                uops_executed += 1
        finally:
            self._issue_time = issue
            self._issued_this_cycle = slots
            self._last_mem_issue = last_mem_issue
            self._last_miss_done = last_miss_done
            self._completion = completion
            self.uops_executed.value = uops_executed
            self.loads_issued.value = loads_issued
            self.mem_stall_cycles.value = mem_stall
            self.tlb_stall_cycles.value = tlb_stall

    @property
    def completion_time(self) -> float:
        return self._completion
