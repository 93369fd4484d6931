"""Bulk-mode serving: array-level replay of the open-loop simulation.

:func:`simulate_service_bulk` reproduces
:func:`repro.serve.simulate.simulate_service` — bit for bit, including
the stats registry — without running the discrete-event engine.  The DES
run decomposes exactly:

* the source's emission times follow a one-pass recurrence over the
  arrival stream (``yield delay`` only when the gap is positive);
* each per-core server alternates between *blocked* (a waiting getter:
  the next put hands off directly, sampling queue depth 0) and *busy
  until its batch completes* (puts append to backlog, sampling the live
  queue depth);
* batch composition per policy is deterministic given those two states:
  a blocked server always starts a batch with just the handed-off
  request; a freed server pops the backlog head and greedily drains up
  to its cap; a deadline policy holds the batch open ``wait`` cycles and
  absorbs every strictly-earlier emission first;
* the global counters (latency distribution, busy cycles) accumulate in
  batch-completion order, so replaying batches sorted by completion time
  reproduces the exact float-add order.

Two replay engines share that decomposition.  Serial policies (fifo, or
a size cap of one — every batch is a single request, so per-core service
order equals emission order) run a tight Lindley-recurrence loop per
core and vectorize the latency math with numpy.  Batching policies run
the explicit backlog replay.  Both accumulate the registry in bulk:
order-free integers (batch/completion counts, queue-depth samples) land
as single adds, the order-sensitive float sums (busy cycles, the latency
distribution's total) as sequential left-folds in exact DES order via
:meth:`~repro.obs.metrics.Distribution.record_many`.

Whenever the event schedule is *tied* — an emission landing exactly on a
batch completion or deadline, two batches completing at the same instant
on different cores, a non-positive service time, or an unrecognized
policy type — the replay's event order would be ambiguous, and
:class:`BulkFallback` sends the caller to the unchanged DES path.  All
fallback checks run before any registry mutation, so a fallback never
leaves partial state behind.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..obs import Counter, Occupancy, StatsRegistry
from .arrivals import Request
from .policies import (BatchByDeadline, BatchBySize, FifoPolicy,
                       SchedulingPolicy, admission_depth, request_timeout)
from .service import ServiceModel
from .core import ResilienceConfig, ServeResult, validate_run

#: Per-core replay state: (samples, total, peak) of the admission queue.
DepthStats = Tuple[int, int, int]


class BulkFallback(SimulationError):
    """The array replay cannot reproduce this run bit-identically; use
    the DES.

    Raised when a contended resource or an exactly-tied event schedule
    makes the replay ambiguous.  Callers catch it and re-run the
    unchanged discrete-event path; it never signals a user error.
    """


def simulate_service_bulk(requests: Sequence[Request], model: ServiceModel, *,
                          policy: SchedulingPolicy, cores: int,
                          offered: float = 0.0,
                          registry: Optional[StatsRegistry] = None,
                          resilience: Optional[ResilienceConfig] = None,
                          queue_depth: Optional[int] = None) -> ServeResult:
    """Array replay of :func:`~repro.serve.simulate.simulate_service`.

    Raises :class:`BulkFallback` when the run cannot be
    replayed unambiguously; callers catch it and use the DES.  Shedding,
    deadlines, walker faults, and the degraded-mode controller all make
    the schedule contended (which requests are dropped or re-served
    depends on event interleaving), so any of them is an immediate
    fallback; an SLO alone only adds accounting on top of the unchanged
    clean schedule, and stays on the bulk path.
    """
    validate_run(requests, model, cores)
    if (queue_depth is not None
            or admission_depth(policy) is not None
            or request_timeout(policy) is not None
            or (resilience is not None
                and (resilience.controller is not None
                     or (resilience.faults is not None
                         and resilience.faults.active)))):
        raise BulkFallback(
            "shedding, deadlines, walker faults, or a controller make "
            "the serve schedule contended")
    slo = resilience.slo if resilience is not None else None

    # -- policy dispatch.  A fifo server is exactly a size-1 batcher:
    # both take one request when blocked and pop one backlog head when
    # freed, with the same number of queue gets.  Only the concrete
    # policy classes are replayable — a subclass may override collect().
    ptype = type(policy)
    wait = 0.0
    if ptype is FifoPolicy:
        cap = 1
    elif ptype is BatchBySize:
        cap = policy.max_batch
    elif ptype is BatchByDeadline:
        cap = policy.max_batch
        wait = policy.wait
    else:
        raise BulkFallback(f"policy {policy!r} has no bulk replay")

    # -- source replay: emission times and sleep count ----------------
    # The DES source sleeps only for positive gaps (d = arrival - now),
    # accumulating e += d; late arrivals emit at the current time.  A
    # first emission at or before t=0 would dispatch before the servers'
    # initial gets are registered, flipping the handoff order.
    #
    # The recurrence is a running maximum up to float rounding: when the
    # gap is positive the source lands at e + (a - e), which is exactly
    # ``a`` whenever both roundings cancel (always, in practice).  The
    # vectorized path *proves* that per element: each candidate step is
    # recomputed with the same IEEE operations the scalar loop would
    # use, assuming the previous emission equals the running max — if
    # every recomputed step lands back on the running max, induction
    # makes the assumption true and the accumulate is exact.  Otherwise
    # the scalar loop runs.
    n = len(requests)
    arrivals_np = np.fromiter((request.arrival for request in requests),
                              dtype=np.float64, count=n)
    if not arrivals_np[0] > 0:
        raise BulkFallback(
            "first request would emit before the servers block")
    peaks = np.maximum.accumulate(arrivals_np)
    prev = np.empty(n)
    prev[0] = 0.0
    prev[1:] = peaks[:-1]
    deltas = arrivals_np - prev
    gaps = deltas > 0
    candidates = np.where(gaps, prev + deltas, prev)
    if bool((candidates == peaks).all()):
        emissions_np = peaks
        sleeps = int(gaps.sum())
    else:  # rounding drift: replay the recurrence one float at a time
        emission = 0.0
        sleeps = 0
        emissions: List[float] = []
        append = emissions.append
        for arrival in arrivals_np.tolist():
            delta = arrival - emission
            if delta > 0:
                emission = emission + delta
                sleeps += 1
            append(emission)
        emissions_np = np.asarray(emissions)

    if cap == 1 and wait == 0.0:
        replay = _replay_serial(requests, arrivals_np, emissions_np, model,
                                cores)
    else:
        replay = _replay_batched(requests, emissions_np.tolist(), model,
                                 cores, cap, wait)
    latencies, batch_cycles, core_puts, core_depths, gets_and_holds, \
        makespan = replay

    # -- accumulate results (no fallbacks past this point) ------------
    if registry is None:
        registry = StatsRegistry()
    scope = registry.scope("serve")
    latency = scope.distribution("latency")
    completed = scope.counter("completed")
    batches = scope.counter("batches")
    busy_cycles = scope.register("busy_cycles", Counter(0.0))
    latency.record_many(latencies)
    completed.value += len(latencies)
    batches.value += len(batch_cycles)
    busy = busy_cycles.value
    for cycles in batch_cycles:  # float adds are order-sensitive
        busy += cycles
    busy_cycles.value = busy

    capacity = max(1, len(requests))
    for i in range(cores):
        puts = Counter()
        puts.value = core_puts[i]
        registry.register(f"serve.core{i}.queue.total_puts", puts)
        depth = Occupancy(capacity)
        depth.samples, depth.total, depth.peak = core_depths[i]
        registry.register(f"serve.core{i}.queue.depth", depth)

    # Engine event count: initial resumes for the source and servers,
    # one put resume per request plus one sleep resume per positive gap,
    # per batch one resume per resolved get plus the hold sleep (if any)
    # plus the service sleep, and one closed-queue get per server.
    dispatched = Counter()
    dispatched.value = (1 + cores + len(requests) + sleeps
                        + gets_and_holds + len(batch_cycles) + cores)
    registry.register("serve.engine.dispatched", dispatched)

    in_slo = 0
    if slo is not None:
        # The resilient DES with only an SLO runs the clean schedule and
        # adds the drop/abort counters (all zero) plus the in-SLO count;
        # mirror that registry layout here, with the count vectorized.
        scope.counter("shed")
        scope.counter("expired")
        scope.counter("aborts")
        in_slo = int((np.asarray(latencies) <= slo).sum())
        scope.counter("in_slo").value = in_slo

    return ServeResult(
        label=model.label, policy=policy.name, offered=offered, cores=cores,
        requests=len(requests), completed=int(completed.value),
        makespan=makespan, latency=latency,
        first_arrival=float(arrivals_np.min()),
        stats=registry.to_dict(),
        slo=slo, in_slo=in_slo)


def _replay_serial(requests: Sequence[Request], arrivals_np: "np.ndarray",
                   emissions_np: "np.ndarray", model: ServiceModel,
                   cores: int):
    """Single-request batches: fifo, or a batcher with ``max_batch=1``.

    Per-core service order equals emission order, so the whole core
    reduces to the Lindley recurrence ``start = max(done, emission)``
    (a pure comparison — no float arithmetic), ``done = start + cycles``.
    The scalar loop only tracks completion times and backlog depth; the
    per-request latency math and the cross-core completion merge run as
    numpy array operations (IEEE-identical to the DES's scalar floats).
    """
    cycles_one = model.cycles_for(1)
    if not cycles_one > 0:
        raise BulkFallback(f"non-positive service time {cycles_one!r}")
    n = len(requests)
    lanes = np.fromiter((request.seq for request in requests),
                        dtype=np.int64, count=n) % cores

    core_puts: List[int] = []
    core_depths: List[DepthStats] = []
    done_parts: List[np.ndarray] = []
    latency_parts: List[np.ndarray] = []
    for core in range(cores):
        lane = lanes == core
        lane_emissions = emissions_np[lane].tolist()
        dones: List[float] = []
        push = dones.append
        t_free = 0.0  # the servers block at t=0; first emission is > 0
        backlog = 0
        samples = 0
        depth_total = 0
        depth_peak = 0
        for e in lane_emissions:
            while backlog and t_free < e:
                # The freed server pops the backlog head and serves it.
                backlog -= 1
                t_free = t_free + cycles_one
                push(t_free)
            if t_free == e:
                raise BulkFallback("emission tied with a batch completion")
            if t_free < e:
                # Blocked server: the put hands off directly (depth 0).
                samples += 1
                t_free = e + cycles_one
                push(t_free)
            else:
                # Busy server: the put appends, sampling the live depth.
                backlog += 1
                samples += 1
                depth_total += backlog
                if backlog > depth_peak:
                    depth_peak = backlog
        while backlog:
            backlog -= 1
            t_free = t_free + cycles_one
            push(t_free)
        core_puts.append(len(lane_emissions))
        core_depths.append((samples, depth_total, depth_peak))
        done_np = np.asarray(dones)
        done_parts.append(done_np)
        latency_parts.append(done_np - arrivals_np[lane])

    all_dones = np.concatenate(done_parts)
    order = np.argsort(all_dones, kind="stable")
    sorted_dones = all_dones[order]
    if sorted_dones.size > 1 and bool(
            (sorted_dones[1:] == sorted_dones[:-1]).any()):
        raise BulkFallback("batch completions tied across cores")
    latencies = np.concatenate(latency_parts)[order]
    # Every batch is one queue get and no hold sleep: n engine events.
    return (latencies, [cycles_one] * n, core_puts, core_depths, n,
            float(sorted_dones[-1]))


def _replay_batched(requests: Sequence[Request], emissions: List[float],
                    model: ServiceModel, cores: int, cap: Optional[int],
                    wait: float):
    """Explicit backlog replay for batching policies (size, deadline)."""
    per_core: List[List[Tuple[float, Request]]] = [[] for _ in range(cores)]
    for emission, request in zip(emissions, requests):
        per_core[request.seq % cores].append((emission, request))

    # Batches: (done, cycles, requests, held) with held = 1 when the
    # deadline hold sleep ran (its engine dispatch must be counted).
    cycles_by_size = {}
    all_batches: List[Tuple[float, float, List[Request], int]] = []
    core_depths: List[DepthStats] = []
    for core_emissions in per_core:
        backlog: deque = deque()
        idx = 0
        pending = len(core_emissions)
        t_free: Optional[float] = None  # None = blocked on get()
        depth_samples = 0
        depth_total = 0
        depth_peak = 0
        while idx < pending or backlog:
            if t_free is None:
                # Blocked server: the next put hands off directly.  The
                # backlog is empty by construction (a waiting getter
                # implies an empty queue), and the server's drain runs
                # before the source can emit again, so the batch starts
                # as just this request.
                start, first = core_emissions[idx]
                idx += 1
                depth_samples += 1  # handoff samples the (empty) queue
            else:
                # Busy server: strictly-earlier emissions append to the
                # backlog, sampling the depth after each append.
                while (idx < pending
                       and core_emissions[idx][0] < t_free):
                    backlog.append(core_emissions[idx][1])
                    level = len(backlog)
                    depth_samples += 1
                    depth_total += level
                    if level > depth_peak:
                        depth_peak = level
                    idx += 1
                if idx < pending and core_emissions[idx][0] == t_free:
                    raise BulkFallback(
                        "emission tied with a batch completion")
                if not backlog:
                    t_free = None
                    continue
                start = t_free
                first = backlog.popleft()
            batch = [first]
            held = 0
            if wait > 0.0:
                # Deadline hold: absorb every emission strictly before
                # the deadline, then drain at the deadline instant.
                deadline = start + wait
                while (idx < pending
                       and core_emissions[idx][0] < deadline):
                    backlog.append(core_emissions[idx][1])
                    level = len(backlog)
                    depth_samples += 1
                    depth_total += level
                    if level > depth_peak:
                        depth_peak = level
                    idx += 1
                if idx < pending and core_emissions[idx][0] == deadline:
                    raise BulkFallback(
                        "emission tied with a batch deadline")
                start = deadline
                held = 1
            while (cap is None or len(batch) < cap) and backlog:
                batch.append(backlog.popleft())
            size = len(batch)
            cycles = cycles_by_size.get(size)
            if cycles is None:  # the model is deterministic in size
                cycles = model.cycles_for(size)
                if not cycles > 0:
                    raise BulkFallback(
                        f"non-positive service time {cycles!r}")
                cycles_by_size[size] = cycles
            done = start + cycles
            all_batches.append((done, cycles, batch, held))
            t_free = done
        core_depths.append((depth_samples, depth_total, depth_peak))

    # -- global completion order --------------------------------------
    # Per-core completions are strictly increasing (positive service
    # times), so an exact tie is always cross-core — and the DES's
    # float-accumulation order across tied completions depends on event
    # sequence numbers the replay does not model.
    all_batches.sort(key=lambda b: b[0])
    for earlier, later in zip(all_batches, all_batches[1:]):
        if earlier[0] == later[0]:
            raise BulkFallback("batch completions tied across cores")

    latencies: List[float] = []
    batch_cycles: List[float] = []
    gets_and_holds = 0
    for done, cycles, batch, held in all_batches:
        batch_cycles.append(cycles)
        gets_and_holds += len(batch) + held
        for request in batch:
            latencies.append(done - request.arrival)
    return (latencies, batch_cycles, [len(core) for core in per_core],
            core_depths, gets_and_holds, all_batches[-1][0])
