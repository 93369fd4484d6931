"""End-to-end benchmark: real figure runs of ``python -m repro``, timed
from outside the program, one fresh process per run.

    python3 perfbench/run.py --workload kernel-build --seed 42 --seconds 60 --trace 0
    python3 perfbench/run.py                      # every workload, seed 42

Every run is serial (``--jobs 1``) with no persistent store
(``--no-cache``), so each pays the workload builds and cache warm-ups a
user pays on an uncached run.  ``--seed`` is passed on as the workload
seed.  A run's outputs are checked (see ``check.py``) and a run that
fails the check counts all of its campaign points as failed operations.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median over
runs), ``setup_s`` (spawn to ``repro.harness.cli`` imported, median over
import-only probes and runs) and ``peak_rss_mb`` (``ru_maxrss`` from
``wait4``, median over runs).  ``--trace 1`` alternates untraced and
traced runs and reports the per-layer metrics of ``spans.py`` (medians
over traced runs) plus ``trace.overhead_ratio``.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from statistics import median
from typing import Any, Dict, List

import check
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(ROOT, "tests", "harness", "goldens")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 42

#: name -> (figure arguments, committed goldens at those settings, seed 42).
#: README.md says why each workload is here.
WORKLOADS = {
    "kernel-build": (("--figure", "fig8", "--probes", "400",
                      "--warmup", "100"),
                     ("fig8_p400_w100_s42.txt",)),
    "sim-serve": (("--figure", "fig-indexes", "--figure", "9b",
                   "--figure", "fig-serve", "--figure", "fig-resilience",
                   "--probes", "400", "--warmup", "100"),
                  ("figindexes_p400_w100_s42.txt", "dss_p400_w100_s42.txt",
                   "figserve_p400_w100_s42.txt")),
}
SERIAL = ("--jobs", "1", "--no-cache")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
MIN_PLAIN_RUNS = 2   # the output check compares two runs' digests
SETUP_PROBES = 3     # import-only children per invocation
DEADLINE_S = 170.0   # an invocation must end within 180 s


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: a host-speed diagnostic
    printed beside each run, never gated."""
    started = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - started


def spawn(mode: str, args, deadline: float) -> Dict[str, Any]:
    """Run ``child.py`` once; its JSON result plus peak RSS.  A child
    still running at ``deadline`` is killed and reported as crashed."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), repr(spawned), mode,
         *args],
        stdout=subprocess.PIPE, cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC))
    timer = threading.Timer(max(1.0, deadline - spawned), proc.kill)
    timer.start()
    try:
        output = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = output.decode("utf-8").strip().splitlines()
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    else:
        result = {"exit_code": proc.returncode, "crashed": True}
    result["rss_mb"] = usage.ru_maxrss / 1024
    return result


def measure(workload: str, seed: int, seconds: int, trace: bool,
            out=sys.stdout) -> Dict[str, Any]:
    """Run one workload for about ``seconds``; the result object."""
    figure_args, golden_names = WORKLOADS[workload]
    with open(REFERENCE, "r", encoding="utf-8") as handle:
        expected = json.load(handle)["workloads"][workload]
    goldens = (check.golden_blocks(GOLDEN_DIR, golden_names)
               if seed == REFERENCE_SEED else None)
    args = (*figure_args, "--seed", str(seed), *SERIAL)
    started = time.monotonic()
    deadline = started + DEADLINE_S

    spawn("setup", (), deadline)  # fills the page cache; not a sample
    setup = [spawn("setup", (), deadline)["setup_s"]
             for _ in range(SETUP_PROBES)]

    modes = ("plain", "traced") if trace else ("plain",)
    min_rounds = 1 if trace else MIN_PLAIN_RUNS
    runs: List[Dict[str, Any]] = []
    first_digest = None
    rounds = 0
    loop_started = time.monotonic()
    while True:
        for mode in modes:
            calibration = calibrate()
            run = spawn(mode, args, deadline)
            run["mode"] = mode
            if run.get("crashed"):
                problems = [f"child exited with {run['exit_code']}"]
            else:
                setup.append(run["setup_s"])
                problems = check.check_run(run, expected, goldens)
                run_digest = check.run_digest(run)
                if first_digest is None:
                    first_digest = run_digest
                elif run_digest != first_digest:
                    problems.append("output differs from the first run")
            run["problems"] = problems
            runs.append(run)
            points = run.get("campaign", {}).get("points", 0)
            print(f"{workload} run {len(runs)} ({mode}): "
                  f"wall {run.get('wall_s', float('nan')):.3f} s, "
                  f"rss {run['rss_mb']:.1f} MB, {points} points, "
                  f"calibration {calibration:.4f} s, "
                  f"{'; '.join(problems) or 'output ok'}", file=out)
        rounds += 1
        now = time.monotonic()
        per_round = (now - loop_started) / rounds
        if rounds >= min_rounds and now - started + per_round > seconds:
            break
        if now + per_round > deadline:
            break

    attempted = failed = 0
    for run in runs:
        points = max(1, run.get("campaign", {}).get("points", 0))
        attempted += points
        failed += points if run["problems"] else 0
    good = [run for run in runs if not run.get("crashed")]
    plain = [run["wall_s"] for run in good if run["mode"] == "plain"]
    if not plain:
        raise SystemExit(f"error: every {workload} run crashed")
    if trace:
        traced = [run for run in good if run["mode"] == "traced"]
        if not traced:
            raise SystemExit(f"error: every traced {workload} run crashed")
        per_run = [spans.layer_metrics(run["spans"], run["wall_s"],
                                       run["campaign"]) for run in traced]
        values = {name: median([layers[name] for layers in per_run])
                  for name in per_run[0]}
        values["trace.overhead_ratio"] = (
            median([run["wall_s"] for run in traced]) / median(plain))
        units = spans.LAYER_UNITS
    else:
        values = {"wall_s": median(plain), "setup_s": median(setup),
                  "peak_rss_mb": median([run["rss_mb"] for run in good])}
        units = END_TO_END_UNITS
    print(f"{workload} seed {seed}: {len(runs)} runs, {len(setup)} set-ups, "
          f"{attempted} points attempted, {failed} failed", file=out)
    for name, value in values.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}", file=out)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def record_reference() -> None:
    """Write ``reference.json`` from one seed-42 run of each workload,
    after checking the reports that have goldens against them."""
    reference = {"seed": REFERENCE_SEED, "workloads": {}}
    for workload, (figure_args, golden_names) in WORKLOADS.items():
        run = spawn("plain", (*figure_args, "--seed", str(REFERENCE_SEED),
                              *SERIAL), time.monotonic() + 600)
        if run.get("crashed"):
            raise SystemExit(f"error: {workload} crashed")
        entry = {"reports": {check.title(block): check.digest(block)
                             for block in check.report_blocks(run["text"])},
                 "stats": run["stats_digest"]}
        problems = check.check_run(
            run, entry, check.golden_blocks(GOLDEN_DIR, golden_names))
        if problems:
            raise SystemExit(f"error: {workload}: {'; '.join(problems)}")
        reference["workloads"][workload] = entry
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from seed-42 runs")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so spawn() kills its child on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    else:
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for workload in WORKLOADS:
            one = measure(workload, args.seed, args.seconds, bool(args.trace))
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for name, metric in one["metrics"].items():
                result["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
