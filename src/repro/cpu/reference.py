"""Reference baseline-core timing models for differential testing.

:class:`ReferenceOutOfOrderCore` and :class:`ReferenceInOrderCore` run
the straightforward uop-by-uop ``execute`` loops the optimized cores
replaced: a method call per dispatch slot and per ROB check, core state
read from and written to attributes on every uop, memory reached through
``self.memory`` each time, and every counter bumped through
``Counter.__iadd__``.  Timing, stats and state are identical to
:class:`~repro.cpu.ooo.OutOfOrderCore` / :class:`~repro.cpu.inorder.InOrderCore`
(whose constructors, state and accessors they inherit); only the
interpretation strategy differs.  ``tests/cpu/test_differential_cores.py``
proves the pairs bit-identical, and :mod:`repro.bench` times the
optimized cores against these.

Do not "improve" these classes: their value is being obviously correct,
not fast.
"""

from __future__ import annotations

from typing import Iterable

from .inorder import InOrderCore
from .ooo import OutOfOrderCore
from .uops import Uop, UopKind, dep_error


class ReferenceOutOfOrderCore(OutOfOrderCore):
    """OutOfOrderCore with the naive uop-by-uop execute loop."""

    def _dispatch_slot(self) -> float:
        """Advance the front end by one dispatch slot; returns its time."""
        if self._dispatch_time < self._frontend_stall_until:
            self._dispatch_time = self._frontend_stall_until
            self._dispatched_this_cycle = 0
        if self._dispatched_this_cycle >= self.config.issue_width:
            self._dispatch_time += 1.0
            self._dispatched_this_cycle = 0
        self._dispatched_this_cycle += 1
        return self._dispatch_time

    def _rob_gate(self, dispatch: float) -> float:
        """Dispatch cannot pass retirement of the uop ROB-size earlier."""
        if len(self._all_done) >= self.config.rob_entries:
            position = len(self._all_done) - self.config.rob_entries
            # In-order retirement: the oldest entry retires no earlier than
            # every older uop's completion (the running horizon).
            gate = max(self._all_done[position], self._horizons[position])
            if gate > dispatch:
                self._dispatch_time = gate
                self._dispatched_this_cycle = 1
                return gate
        return dispatch

    def execute(self, uops: Iterable[Uop]) -> None:
        """Execute a stream of uops (may be called repeatedly)."""
        horizon = self._horizons[-1] if self._horizons else 0.0
        for uop in uops:
            dispatch = self._dispatch_slot()
            dispatch = self._rob_gate(dispatch)
            ready = dispatch
            for dep in uop.deps:
                if not 0 <= dep < len(self._all_done):
                    raise dep_error(len(self._all_done), dep)
                done = self._all_done[dep]
                if done > ready:
                    ready = done
            if uop.kind is UopKind.LOAD:
                result = self.memory.load(uop.addr, ready)
                done = result.complete
                if result.tlb_stall > 0:
                    done += self.memory.cfg.tlb.trap_cycles
                    self._frontend_stall_until = max(
                        self._frontend_stall_until, done)
                self.loads_issued += 1
                self.mem_stall_cycles += max(0.0, done - ready - 1.0)
                self.tlb_stall_cycles += result.tlb_stall
            elif uop.kind is UopKind.STORE:
                self.memory.store(uop.addr, ready)
                done = ready + 1.0
            else:
                done = ready + uop.latency
            if uop.kind is UopKind.BRANCH and uop.mispredict:
                self._frontend_stall_until = max(
                    self._frontend_stall_until, done + self.mispredict_penalty)
            self._all_done.append(done)
            horizon = max(horizon, done)
            self._horizons.append(horizon)
            self.uops_executed += 1


class ReferenceInOrderCore(InOrderCore):
    """InOrderCore with the naive uop-by-uop execute loop."""

    def _issue_slot(self) -> float:
        if self._issued_this_cycle >= self.config.issue_width:
            self._issue_time += 1.0
            self._issued_this_cycle = 0
        self._issued_this_cycle += 1
        return self._issue_time

    def execute(self, uops: Iterable[Uop]) -> None:
        """Execute a stream of uops (may be called repeatedly)."""
        for uop in uops:
            issue = self._issue_slot()
            ready = issue
            for dep in uop.deps:
                if not 0 <= dep < len(self._all_done):
                    raise dep_error(len(self._all_done), dep)
                done = self._all_done[dep]
                if done > ready:
                    ready = done
            if ready > self._issue_time:
                self._issue_time = ready
                self._issued_this_cycle = 1
            if uop.kind in (UopKind.LOAD, UopKind.STORE):
                if ready <= self._last_mem_issue:
                    ready = self._last_mem_issue + 1.0
                    if ready > self._issue_time:
                        self._issue_time = ready
                        self._issued_this_cycle = 1
                self._last_mem_issue = ready
            if uop.kind is UopKind.LOAD:
                start = ready
                block = self.memory.l1d.block_of(uop.addr)
                if not self.memory.l1d.array.present(block):
                    start = max(start, self._last_miss_done)
                result = self.memory.load(uop.addr, start)
                done = result.complete + self.load_use_penalty
                if result.tlb_stall > 0:
                    done += self.memory.cfg.tlb.trap_cycles
                    self._issue_time = max(self._issue_time, done)
                    self._issued_this_cycle = 0
                if result.level != "L1":
                    self._last_miss_done = done
                    self._issue_time = max(self._issue_time, done)
                    self._issued_this_cycle = 0
                self.loads_issued += 1
                self.mem_stall_cycles += max(0.0, done - ready - 1.0)
                self.tlb_stall_cycles += result.tlb_stall
            elif uop.kind is UopKind.STORE:
                self.memory.store(uop.addr, ready)
                done = ready + 1.0
            else:
                done = ready + uop.latency
            if uop.kind is UopKind.BRANCH and uop.mispredict:
                stall_until = done + self.mispredict_penalty
                if stall_until > self._issue_time:
                    self._issue_time = stall_until
                    self._issued_this_cycle = 0
            self._all_done.append(done)
            if done > self._completion:
                self._completion = done
            self.uops_executed += 1
