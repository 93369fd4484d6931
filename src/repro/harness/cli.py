"""Command-line driver: regenerate any paper artifact from a shell.

Usage::

    python -m repro --list
    python -m repro --figure 8b
    python -m repro --figure 10 --probes 3000 --warmup 600
    python -m repro --all --jobs 4 --cache-dir ~/.cache/repro

Before any simulated figure runs, a campaign pre-pass enumerates every
measurement point the selection needs, dedups the overlap between figures,
and fans the misses out over ``--jobs`` worker processes.  With
``--cache-dir`` the measurements persist on disk, so a repeated or resumed
invocation reports cache hits instead of re-simulating.

The campaign is fault-tolerant: crashed or wedged workers forfeit only
their in-flight point, which retries up to ``--retries`` times with
exponential backoff (``--point-timeout`` bounds how long a silent worker
is trusted).  Points that exhaust their retries land in a failure
manifest and the surviving figures still render.  ``--chaos SEED``
deterministically injects worker kills, hangs, measurement errors and
cache corruption to exercise exactly those paths.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from typing import Dict, List, Optional

from ..errors import CampaignInterrupted, MeasurementFailed, ServeError
from ..obs import Tracer, Trail
from ..serve.control import parse_controller
from ..serve.policies import parse_policy
from .campaign import Campaign, MeasurementPoint, RetryPolicy, default_jobs
from .cachestore import CacheStore
from .chaos import ChaosSpec, ChaosStore
from .report import Report, failure_report
from .runner import MeasurementCache, RunSettings
from . import (fig2, fig4, fig5, fig8, fig9, fig10, fig11, figindexes,
               figpim, figresilience, figserve)

#: Experiment registry: name -> (needs_measurements, runner, points).
#: ``points`` declares the measurement points the runner will consume so
#: the campaign pre-pass can prefetch them; ``None`` for analytic figures.
EXPERIMENTS: Dict[str, tuple] = {
    "2a": (False, lambda cache: fig2.run_fig2a(), None),
    "2b": (False, lambda cache: fig2.run_fig2b(), None),
    "4a": (False, lambda cache: fig4.run_fig4a(), None),
    "4b": (False, lambda cache: fig4.run_fig4b(), None),
    "4c": (False, lambda cache: fig4.run_fig4c(), None),
    "5": (False, lambda cache: fig5.run_fig5(), None),
    "8a": (True, fig8.run_fig8a, fig8.points_fig8),
    "8b": (True, fig8.run_fig8b, fig8.points_fig8),
    "9a": (True, fig9.run_fig9a, fig9.points_fig9a),
    "9b": (True, fig9.run_fig9b, fig9.points_fig9b),
    "10": (True, fig10.run_fig10, fig10.points_fig10),
    "query-level": (True, fig10.run_query_level, fig10.points_query_level),
    "11": (True, fig11.run_fig11, fig11.points_fig11),
    "area": (False, lambda cache: fig11.run_area(), None),
    "serve": (True, figserve.run_fig_serve, figserve.points_fig_serve),
    "resilience": (True, figresilience.run_fig_resilience,
                   figresilience.points_fig_resilience),
    "pim": (True, figpim.run_fig_pim, figpim.points_fig_pim),
    "indexes": (True, figindexes.run_fig_indexes,
                figindexes.points_fig_indexes),
}

#: Experiments whose point declarations and runners grow a bank-side
#: walker column under ``--pim`` (the ``pim`` figure itself always runs
#: the PIM sweep and needs no flag).
PIM_AWARE = ("8b", "serve", "resilience")

#: Experiments whose point declarations and runners grow a batched
#: B+-tree backend column under ``--batched-tree`` (the ``indexes``
#: figure always sweeps the batched traversal and needs no flag).
BATCHED_AWARE = ("serve",)

_FAST = {name for name, (needs, _, _) in EXPERIMENTS.items() if not needs}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables and figures from 'Meet the Walkers' "
                    "(MICRO 2013).")
    parser.add_argument("--figure", action="append", dest="figures",
                        metavar="ID",
                        help="experiment id (repeatable); a bare figure "
                             "number like 'fig8' or '8' selects every "
                             "panel; see --list")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--fast", action="store_true",
                        help="run only the analytic (sub-second) experiments")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--probes", type=int, default=3000,
                        help="probe keys per measured configuration")
    parser.add_argument("--warmup", type=int, default=600,
                        help="warm-up probes excluded from measurement")
    parser.add_argument("--seed", type=int, default=42,
                        help="workload generation seed")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the measurement campaign "
                             "(default: all cores)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist measurements under DIR; repeated runs "
                             "reuse them instead of re-simulating")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir (measure everything fresh)")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retry attempts per failing measurement point "
                             "(default: 2)")
    parser.add_argument("--point-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="reap a campaign worker that makes no progress "
                             "for this long (default: no timeout)")
    parser.add_argument("--chaos", type=int, default=None, metavar="SEED",
                        help="inject deterministic faults seeded by SEED "
                             "(kills, hangs, errors, store corruption) to "
                             "exercise the recovery paths")
    parser.add_argument("--chaos-rate", type=float, default=0.25, metavar="R",
                        help="per-fault-site injection probability for "
                             "--chaos (default: 0.25)")
    parser.add_argument("--pim", action="store_true",
                        help="add the bank-side walker backend (near-memory "
                             "PIM) as an extra column in fig8b, fig-serve "
                             "and fig-resilience; the dedicated fig-pim "
                             "sweep runs it regardless")
    parser.add_argument("--batched-tree", action="store_true",
                        dest="batched_tree",
                        help="add the level-wise batched B+-tree backend as "
                             "an extra column in fig-serve; the fig-indexes "
                             "sweep runs it regardless")
    parser.add_argument("--bulk", action="store_true",
                        help="replay the fig-serve and fig-resilience request "
                             "streams as array programs instead of event "
                             "streams (bit-identical results; contended "
                             "schedules automatically fall back to the "
                             "event engine)")
    parser.add_argument("--serve-policy", default="fifo", metavar="SPEC",
                        dest="serve_policy",
                        help="scheduling policy for the fig-serve sweep: "
                             "'fifo', 'size:N' or 'deadline:CYCLES[:N]' "
                             "(default: fifo)")
    parser.add_argument("--serve-slo", type=float, default=None,
                        metavar="CYCLES", dest="serve_slo",
                        help="latency SLO in cycles for the fig-serve sweep; "
                             "adds goodput/shed columns via the resilient "
                             "serving path (default: off)")
    parser.add_argument("--serve-controller", default=None, metavar="SPEC",
                        dest="serve_controller",
                        help="degraded-mode controller for the fig-serve "
                             "sweep: 'p99:WINDOW[:BREACH[:RECOVER[:ACTION]]]' "
                             "(needs --serve-slo; default: off)")
    parser.add_argument("--stats-json", default=None, metavar="PATH",
                        dest="stats_json",
                        help="write the merged stats-registry snapshot and "
                             "the reports as JSON to PATH")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a Chrome trace-event file of one Widx "
                             "offload (open in about:tracing / Perfetto)")
    parser.add_argument("--trails", type=int, default=None, metavar="N",
                        help="with --trace: capture per-request walker "
                             "trails (each LD hop's address and cache "
                             "level; the last N kept) into the trace file "
                             "and the --stats-json payload")
    return parser


def resolve_figures(raw: List[str]) -> List[str]:
    """Expand user-supplied ``--figure`` tokens to experiment ids.

    Accepts exact ids (``8b``), ids with a ``fig`` prefix (``fig8b``,
    ``fig-serve``, ``fig-pim``) and bare figure numbers (``8`` or
    ``fig8``), which select every lettered panel (``8a`` and ``8b``).
    Panel expansion applies only to all-digit tokens — anything else must
    match an id exactly, so a typo like ``--figure s`` is rejected
    instead of silently selecting ``serve``.  Raises :class:`ValueError`
    naming the bad token and the valid ids when nothing matches.
    Duplicates are dropped, first occurrence wins.
    """
    names: List[str] = []
    for token in raw:
        cleaned = token.strip().lower()
        if cleaned.startswith("fig"):
            # Accept both 'fig8b' and hyphenated verbs like 'fig-serve'.
            cleaned = cleaned[3:].lstrip("-")
        if cleaned in EXPERIMENTS:
            matches = [cleaned]
        elif cleaned.isdigit():
            # A bare figure number selects all of its lettered panels.
            matches = sorted(
                name for name in EXPERIMENTS
                if name.startswith(cleaned) and name[len(cleaned):].isalpha())
        else:
            matches = []
        if not matches:
            known = ", ".join(sorted(EXPERIMENTS, key=_sort_key))
            raise ValueError(
                f"unknown figure {token!r} (choose from: {known})")
        for name in matches:
            if name not in names:
                names.append(name)
    return names


def list_experiments() -> str:
    """Human-readable list of experiment ids and kinds."""
    lines = ["available experiments:"]
    for name in sorted(EXPERIMENTS, key=_sort_key):
        needs, _, _ = EXPERIMENTS[name]
        kind = "simulation" if needs else "analytic"
        lines.append(f"  {name:<12} ({kind})")
    return "\n".join(lines)


def _sort_key(name: str):
    digits = "".join(ch for ch in name if ch.isdigit())
    return (int(digits) if digits else 99, name)


def campaign_points(names: List[str],
                    pim: bool = False,
                    batched: bool = False) -> List[MeasurementPoint]:
    """Every measurement point the named experiments declare (with dups).

    ``pim`` forwards ``include_pim=True`` to the experiments in
    :data:`PIM_AWARE` and ``batched`` forwards ``include_batched=True``
    to those in :data:`BATCHED_AWARE`, so the opt-in backend columns are
    prefetched alongside the host-side points.
    """
    points: List[MeasurementPoint] = []
    for name in names:
        _needs, _runner, declare = EXPERIMENTS[name]
        if declare is not None:
            kwargs = {}
            if pim and name in PIM_AWARE:
                kwargs["include_pim"] = True
            if batched and name in BATCHED_AWARE:
                kwargs["include_batched"] = True
            points.extend(declare(**kwargs))
    return points


def run_experiments(names: List[str], settings: RunSettings,
                    out=sys.stdout, store: Optional[CacheStore] = None,
                    jobs: int = 1, policy: Optional[RetryPolicy] = None,
                    chaos: Optional[ChaosSpec] = None,
                    stats_json: Optional[str] = None,
                    trace: Optional[str] = None,
                    serve_policy: str = "fifo",
                    bulk: bool = False,
                    serve_slo: Optional[float] = None,
                    serve_controller: Optional[str] = None,
                    trails: Optional[int] = None,
                    pim: bool = False,
                    batched: bool = False) -> List[Report]:
    """Run the named experiments, printing each report.

    A campaign pre-pass prefetches every declared measurement point
    (parallel across workloads when ``jobs > 1``) so the figure drivers
    below only read the warm cache.  A campaign with failed points still
    renders every figure it can: a driver whose points are poisoned is
    reported as failed (with the failure manifest) instead of aborting
    the whole run.

    ``pim`` threads ``include_pim=True`` through the point declarations
    and runners of the :data:`PIM_AWARE` figures, adding the bank-side
    walker column (``--pim``); ``batched`` does the same for
    :data:`BATCHED_AWARE` via ``include_batched=True``
    (``--batched-tree``); other figures ignore them.

    ``stats_json`` writes the merged stats-registry snapshot plus every
    report (via :meth:`Report.to_dict`) as JSON; ``trace`` re-runs one
    Widx point with a :class:`~repro.obs.Tracer` attached and writes a
    Chrome trace-event file.  ``trails`` (with ``trace``) additionally
    captures per-request walker trails during that drill: the last N
    traversal paths land as per-hop spans in the trace file and, when
    ``stats_json`` is also given, as a ``trails`` object in the payload.
    """
    if chaos is not None and store is not None:
        store = ChaosStore(store, chaos)
    cache = MeasurementCache(runs=settings, store=store)
    points = campaign_points(names, pim=pim, batched=batched)
    failures = []
    if points:
        started = time.time()
        result = Campaign(cache, policy=policy, chaos=chaos).run(
            points, jobs=jobs)
        elapsed = time.time() - started
        print(f"[{result.summary()}, {elapsed:.1f}s]\n", file=out)
        failures = result.failures
    reports = []
    for name in names:
        _needs, runner, _points = EXPERIMENTS[name]
        started = time.time()
        try:
            # The serving sweeps are the drivers with tunables beyond
            # the cache: scheduling policy, SLO, and controller.
            if name == "serve":
                report = runner(cache, serve_policy, bulk=bulk,
                                slo=serve_slo,
                                controller_spec=serve_controller,
                                include_pim=pim,
                                include_batched=batched)
            elif name == "resilience":
                report = runner(cache, bulk=bulk, include_pim=pim)
            elif pim and name in PIM_AWARE:
                report = runner(cache, include_pim=True)
            else:
                report = runner(cache)
        except MeasurementFailed as exc:
            elapsed = time.time() - started
            print(f"[{name}: FAILED after {elapsed:.1f}s — {exc}]\n",
                  file=out)
            continue
        elapsed = time.time() - started
        print(report.format(), file=out)
        print(f"[{name}: {elapsed:.1f}s]\n", file=out)
        reports.append(report)
    if failures:
        print(failure_report(failures).format(), file=out)
        print(file=out)
    trail = None
    if trace is not None:
        trail = _trace_drill(cache, points, trace, out, trails=trails)
    if stats_json is not None:
        _write_stats_json(stats_json, names, settings, cache, reports,
                          failures, out, trail=trail)
    return reports


def _write_stats_json(path: str, names: List[str], settings: RunSettings,
                      cache: MeasurementCache, reports: List[Report],
                      failures, out, trail: Optional[Trail] = None) -> None:
    """Serialize the run's statistics and reports to one JSON file.

    Volatile campaign accounting (wall-clock, worker counts, store hit
    rates) is deliberately excluded so the payload stays deterministic
    for a given selection, settings and seed.
    """
    payload = {
        "format": 1,
        "experiments": list(names),
        "settings": asdict(settings),
        "registry": cache.merged_stats().to_dict(),
        "reports": [report.to_dict() for report in reports],
    }
    if failures:
        payload["failures"] = failure_report(failures).to_dict()
    if trail is not None:
        payload["trails"] = trail.to_dict()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[stats written to {path}]", file=out)


def _trace_drill(cache: MeasurementCache, points: List[MeasurementPoint],
                 path: str, out,
                 trails: Optional[int] = None) -> Optional[Trail]:
    """Re-run the selection's first Widx point with a tracer attached.

    Traces are a drill-down artifact, not a campaign output: cached
    measurements never re-simulate, so the drill re-runs exactly one
    offload in-process with the same workload, settings and seed.  With
    no Widx point in the selection an empty (but valid) trace is still
    written.

    ``trails`` additionally hooks a bounded :class:`~repro.obs.Trail`
    ring (capacity ``trails``) onto the drill's walkers; the captured
    traversal paths are folded into the trace file as per-hop spans and
    the Trail is returned for the ``--stats-json`` payload.
    """
    from ..widx.offload import offload_probe

    target = next((p for p in points if p.op == "widx"), None)
    tracer = Tracer()
    trail = Trail(capacity=trails) if trails is not None else None
    if target is None:
        print(f"[trace: no Widx point in this selection; "
              f"empty trace written to {path}]", file=out)
    else:
        index, probes = (
            cache.kernel_workload(target.name) if target.kind == "kernel"
            else cache.query_workload(cache._spec_by_name(target.name)))
        config = cache.config.with_widx(num_walkers=target.walkers,
                                        mode=target.mode)
        started = time.time()
        offload_probe(index, probes, config=config,
                      probes=cache.runs.probes, tracer=tracer, trail=trail)
        elapsed = time.time() - started
        captured = ""
        if trail is not None:
            trail.feed_tracer(tracer)
            captured = f" ({len(trail)} trails captured)"
        print(f"[trace: {'/'.join(map(str, target.cache_tuple()))} "
              f"re-simulated in {elapsed:.1f}s; {tracer.num_events} events "
              f"written to {path}{captured}]", file=out)
    tracer.write(path)
    return trail


def main(argv: Optional[List[str]] = None, out=sys.stdout) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        print(list_experiments(), file=out)
        return 0
    if args.all:
        names = sorted(EXPERIMENTS, key=_sort_key)
    elif args.fast:
        names = sorted(_FAST, key=_sort_key)
    elif args.figures:
        try:
            names = resolve_figures(args.figures)
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return 2
    else:
        parser.print_usage(file=out)
        print("nothing to do: pass --figure ID, --fast, --all or --list",
              file=out)
        return 2
    if args.probes <= args.warmup:
        print("error: --probes must exceed --warmup", file=out)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be >= 1", file=out)
        return 2
    if args.retries < 0:
        print("error: --retries must be >= 0", file=out)
        return 2
    if args.point_timeout is not None and args.point_timeout <= 0:
        print("error: --point-timeout must be positive", file=out)
        return 2
    if not 0.0 <= args.chaos_rate <= 1.0:
        print("error: --chaos-rate must be in [0, 1]", file=out)
        return 2
    if args.trails is not None:
        if args.trails < 1:
            print("error: --trails must be >= 1", file=out)
            return 2
        if args.trace is None:
            print("error: --trails needs --trace (trails are captured "
                  "during the trace drill-down)", file=out)
            return 2
    try:
        parse_policy(args.serve_policy)
        if args.serve_controller is not None:
            parse_controller(args.serve_controller)
            if args.serve_slo is None:
                print("error: --serve-controller needs --serve-slo",
                      file=out)
                return 2
        if args.serve_slo is not None and not args.serve_slo > 0:
            print("error: --serve-slo must be positive", file=out)
            return 2
    except ServeError as exc:
        print(f"error: {exc}", file=out)
        return 2
    settings = RunSettings(probes=args.probes, warmup=args.warmup,
                           seed=args.seed)
    store = None
    if args.cache_dir and not args.no_cache:
        store = CacheStore(args.cache_dir)
    jobs = default_jobs() if args.jobs is None else args.jobs
    policy = RetryPolicy(max_retries=args.retries,
                         point_timeout=args.point_timeout)
    chaos = None
    if args.chaos is not None:
        rate = args.chaos_rate
        chaos = ChaosSpec(seed=args.chaos, kill_rate=rate, hang_rate=rate,
                          error_rate=rate, io_error_rate=rate,
                          corrupt_rate=rate, hang_seconds=30.0)
        if args.point_timeout is None:
            # Injected hangs need a reaper to be recoverable.
            policy = RetryPolicy(max_retries=max(2, args.retries),
                                 point_timeout=20.0)
    try:
        run_experiments(names, settings, out=out, store=store, jobs=jobs,
                        policy=policy, chaos=chaos,
                        stats_json=args.stats_json, trace=args.trace,
                        serve_policy=args.serve_policy, bulk=args.bulk,
                        serve_slo=args.serve_slo,
                        serve_controller=args.serve_controller,
                        trails=args.trails, pim=args.pim,
                        batched=args.batched_tree)
    except CampaignInterrupted as exc:
        print(f"\n{exc}", file=out)
        return 130
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
