"""Spans around the public entry point of each layer, and the per-layer
metrics derived from them.

A traced figure run replaces each entry point in :data:`ENTRY_POINTS`, in
the module that looks it up, with a wrapper that records one span (name,
start, end, parent span) plus a few work counts and returns the wrapped
result unchanged.  Spans stay in memory and leave the process once, at
exit.  A span's self time is its duration minus its child spans, so the
self times of all spans plus ``harness.other_s`` add up to the traced
wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Counter = Callable[[tuple, dict, Any], Dict[str, float]]


def _build_counts(args, kwargs, result) -> Dict[str, float]:
    index, _probes = result
    return {"keys": index.num_keys}


def _warm_counts(args, kwargs, result) -> Dict[str, float]:
    memory = args[0]
    size = args[2] if len(args) > 2 else kwargs["size"]
    llc = getattr(memory.cfg, "llc", None)
    if llc is None:  # the PIM side has no LLC; judge it by the host's
        from repro.config import DEFAULT_CONFIG
        llc = DEFAULT_CONFIG.llc
    return {"warm_bytes": size, "llc_share": size / llc.size_bytes}


def _stat_sum(stats: Optional[dict], prefix: str, suffix: str) -> float:
    if not stats:
        return 0
    return sum(entry["value"] for name, entry in stats.items()
               if name.startswith(prefix) and name.endswith(suffix))


def _cpu_counts(args, kwargs, result) -> Dict[str, float]:
    return {"uops": _stat_sum(result.stats, "cpu.", ".uops_executed")}


def _widx_counts(args, kwargs, result) -> Dict[str, float]:
    return {"instructions": _stat_sum(result.stats, "widx.", ".instructions"),
            "events": _stat_sum(result.stats, "sim.engine.dispatched", ""),
            "validated": 1 if result.validated is True else 0}


def _replay_counts(args, kwargs, result) -> Dict[str, float]:
    return {"requests": kwargs["num_requests"]}


#: (module, attribute path, self-time metric, work counter).  Functions
#: are wrapped where the harness imported them, methods on their class.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    ("repro.harness.runner", "build_kernel_workload", "workloads.build_s",
     _build_counts),
    ("repro.harness.runner", "build_query_index", "workloads.build_s",
     _build_counts),
    ("repro.harness.runner", "build_ordered_workload", "workloads.build_s",
     _build_counts),
    ("repro.mem.hierarchy", "MemoryHierarchy.warm_range", "mem.warm_s",
     _warm_counts),
    ("repro.mem.llcside", "LlcSideMemory.warm_range", "mem.warm_s",
     _warm_counts),
    ("repro.mem.pimside", "PimBankMemory.warm_range", "mem.warm_s",
     _warm_counts),
    ("repro.harness.runner", "measure_indexing", "cpu.sim_s", _cpu_counts),
    ("repro.harness.runner", "measure_ordered_indexing", "cpu.sim_s",
     _cpu_counts),
    ("repro.harness.runner", "offload_probe", "widx.sim_s", _widx_counts),
    ("repro.harness.runner", "offload_tree_search", "widx.sim_s",
     _widx_counts),
    ("repro.harness.runner", "offload_trie_search", "widx.sim_s",
     _widx_counts),
    ("repro.harness.runner", "offload_wormhole_search", "widx.sim_s",
     _widx_counts),
    ("repro.harness.runner", "offload_batched_tree", "widx.sim_s",
     _widx_counts),
    ("repro.serve.service", "offload_probe", "widx.sim_s", _widx_counts),
    ("repro.serve.service", "offload_batched_tree", "widx.sim_s",
     _widx_counts),
    ("repro.harness.runner", "measure_service", "serve.calibrate_s", None),
    ("repro.harness.figserve", "run_open_loop", "serve.replay_s",
     _replay_counts),
    ("repro.harness.figresilience", "run_open_loop", "serve.replay_s",
     _replay_counts),
    ("repro.harness.report", "Report.format", "harness.render_s", None),
)

#: Self-time metric of every span name.
METRIC_OF: Dict[str, str] = {attr: metric
                             for _module, attr, metric, _count in ENTRY_POINTS}

#: Every per-layer metric a traced run reports, with its unit.
LAYER_UNITS: Dict[str, str] = {
    "workloads.build_s": "s",
    "workloads.builds": "count",
    "workloads.keys_per_s": "keys/s",
    "mem.warm_s": "s",
    "mem.warm_calls": "count",
    "mem.warm_mb_per_s": "MB/s",
    "mem.warm_overshoot": "ratio",
    "cpu.sim_s": "s",
    "cpu.points": "count",
    "cpu.host_ns_per_uop": "ns/uop",
    "widx.sim_s": "s",
    "widx.points": "count",
    "widx.host_ns_per_instruction": "ns/instruction",
    "widx.host_ns_per_event": "ns/event",
    "widx.validated_ratio": "ratio",
    "serve.calibrate_s": "s",
    "serve.replay_s": "s",
    "serve.replays": "count",
    "serve.requests_per_s": "requests/s",
    "harness.render_s": "s",
    "harness.attempts_per_point": "attempts/point",
    "harness.other_s": "s",
    "trace.overhead_ratio": "ratio",
}


class SpanRecorder:
    """In-memory span list; :meth:`wrap` makes the recording wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    def wrap(self, name: str, fn: Callable,
             counter: Optional[Counter] = None) -> Callable:
        """``fn`` recording one span per call; results pass through."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": self.clock(), "end": None,
                    "parent": self._open[-1] if self._open else -1,
                    "counts": {}}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._open.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result
        return traced


def install(recorder: SpanRecorder) -> List[Tuple[Any, str, Any]]:
    """Wrap every entry point; returns what :func:`uninstall` restores."""
    saved = []
    for module_name, path, _metric, counter in ENTRY_POINTS:
        owner: Any = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(path, original, counter))
    return saved


def uninstall(saved: Sequence[Tuple[Any, str, Any]]) -> None:
    """Put back the originals :func:`install` replaced."""
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def self_times(spans: Sequence[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus the durations of its child spans."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] >= 0:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Sequence[Dict[str, Any]], wall_s: float,
                  campaign: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric but ``trace.overhead_ratio`` for one traced
    run; ``campaign`` holds the run's measured, retried and failed point
    counts."""
    seconds = {metric: 0.0 for metric in set(METRIC_OF.values())}
    calls = {metric: 0 for metric in seconds}
    work: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        metric = METRIC_OF[span["name"]]
        seconds[metric] += own
        calls[metric] += 1
        for key, value in span["counts"].items():
            work[key] = work.get(key, 0) + value
    tried = campaign["measured"] + campaign["failed"]
    return {
        "workloads.build_s": seconds["workloads.build_s"],
        "workloads.builds": calls["workloads.build_s"],
        "workloads.keys_per_s": _ratio(work.get("keys", 0),
                                       seconds["workloads.build_s"]),
        "mem.warm_s": seconds["mem.warm_s"],
        "mem.warm_calls": calls["mem.warm_s"],
        "mem.warm_mb_per_s": _ratio(work.get("warm_bytes", 0) / 1e6,
                                    seconds["mem.warm_s"]),
        "mem.warm_overshoot": _ratio(work.get("llc_share", 0),
                                     calls["mem.warm_s"]),
        "cpu.sim_s": seconds["cpu.sim_s"],
        "cpu.points": calls["cpu.sim_s"],
        "cpu.host_ns_per_uop": _ratio(seconds["cpu.sim_s"] * 1e9,
                                      work.get("uops", 0)),
        "widx.sim_s": seconds["widx.sim_s"],
        "widx.points": calls["widx.sim_s"],
        "widx.host_ns_per_instruction": _ratio(
            seconds["widx.sim_s"] * 1e9, work.get("instructions", 0)),
        "widx.host_ns_per_event": _ratio(seconds["widx.sim_s"] * 1e9,
                                         work.get("events", 0)),
        "widx.validated_ratio": _ratio(work.get("validated", 0),
                                       calls["widx.sim_s"]),
        "serve.calibrate_s": seconds["serve.calibrate_s"],
        "serve.replay_s": seconds["serve.replay_s"],
        "serve.replays": calls["serve.replay_s"],
        "serve.requests_per_s": _ratio(work.get("requests", 0),
                                       seconds["serve.replay_s"]),
        "harness.render_s": seconds["harness.render_s"],
        "harness.attempts_per_point": _ratio(
            tried + campaign["retries"], tried),
        "harness.other_s": wall_s - sum(seconds.values()),
    }
