"""Output check for one benchmark run of ``python -m repro``.

At the reference seed every rendered report must equal its committed
golden byte for byte where one exists at the workload's settings, and
every report plus the merged stats registry must match the digests
recorded in ``reference.json`` at the commit that introduced the
benchmark.  At every seed the run must render every expected figure,
exit cleanly, leave the campaign failure manifest empty and validate
every Widx offload, and all runs of one invocation must agree digest for
digest.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Sequence


def digest(text: str) -> str:
    """Hex SHA-256 of a string."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_blocks(text: str) -> List[str]:
    """The rendered reports in CLI output, minus the ``[...]`` campaign
    and timing lines, each as :meth:`Report.format` returned it."""
    body = "\n".join(line for line in text.split("\n")
                     if not line.startswith("["))
    return [block.strip("\n") for block in body.split("\n\n")
            if block.strip("\n")]


def title(block: str) -> str:
    return block.split("\n", 1)[0]


def golden_blocks(golden_dir: str, names: Sequence[str]) -> Dict[str, str]:
    """Title -> report text of every report in the named golden files."""
    blocks: Dict[str, str] = {}
    for name in names:
        with open(os.path.join(golden_dir, name), "r", encoding="utf-8",
                  newline="") as handle:
            for block in report_blocks(handle.read()):
                blocks[title(block)] = block
    return blocks


def run_digest(run: Dict[str, Any]) -> str:
    """One digest over a run's reports and merged stats."""
    return digest(json.dumps([report_blocks(run["text"]),
                              run["stats_digest"]]))


def check_run(run: Dict[str, Any], expected: Dict[str, Any],
              goldens: Optional[Dict[str, str]]) -> List[str]:
    """Problems with one run's output; empty when it passes.

    ``expected`` is the workload's entry in ``reference.json``;
    ``goldens`` (title -> text) is given only at the reference seed, and
    then the recorded digests are enforced too.
    """
    problems = []
    if run["exit_code"] != 0:
        problems.append(f"exit code {run['exit_code']}")
    if run["campaign"]["failures"]:
        problems.append("campaign failures: "
                        + "; ".join(run["campaign"]["failures"]))
    if run["unvalidated"]:
        problems.append(f"{run['unvalidated']} Widx offloads not validated")
    blocks = report_blocks(run["text"])
    titles = [title(block) for block in blocks]
    if sorted(titles) != sorted(expected["reports"]):
        problems.append(f"rendered reports {titles} != expected "
                        f"{sorted(expected['reports'])}")
    if goldens is None:
        return problems
    for block in blocks:
        name = title(block)
        if name in goldens and block != goldens[name]:
            problems.append(f"report {name!r} differs from its golden")
        if digest(block) != expected["reports"].get(name):
            problems.append(f"report {name!r} differs from the reference")
    if run["stats_digest"] != expected["stats"]:
        problems.append("merged stats differ from the reference")
    return problems
