"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import re
import shutil

import pytest

import check
import run
import spans
from repro.harness.report import Report
from repro.mem.hierarchy import MemoryHierarchy
from repro.config import DEFAULT_CONFIG

NAME = re.compile(r"[A-Za-z0-9_.-]+")
FIG8_GOLDEN = "fig8_p400_w100_s42.txt"


def _reference():
    with open(run.REFERENCE, "r", encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def _cli_text(blocks):
    """Reports as the CLI prints them, timing lines included."""
    parts = ["[campaign: 12 points, 0 cached, 12 measured, jobs=1, 9.9s]\n"]
    for block in blocks:
        parts.append(f"{block}\n[x: 0.0s]\n")
    return "\n".join(parts) + "\n"


def _fig8_run():
    with open(os.path.join(run.GOLDEN_DIR, FIG8_GOLDEN), "r",
              encoding="utf-8", newline="") as handle:
        blocks = check.report_blocks(handle.read())
    return {"exit_code": 0, "text": _cli_text(blocks), "unvalidated": 0,
            "stats_digest": _reference()["kernel-build"]["stats"],
            "campaign": {"failures": []}}


def test_wrapper_returns_result_unchanged_and_records_a_span():
    recorder = spans.SpanRecorder()
    payload = object()
    traced = recorder.wrap("f", lambda value, *, key: (value, key))
    assert traced(payload, key=3) == (payload, 3)
    (span,) = recorder.spans
    assert span["name"] == "f" and span["parent"] == -1
    assert span["end"] >= span["start"]


def test_wrapper_closes_its_span_when_the_call_raises():
    recorder = spans.SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("boom", boom)()
    assert recorder.spans[0]["end"] is not None
    assert recorder.wrap("ok", lambda: 1)() == 1
    assert recorder.spans[1]["parent"] == -1


def test_installed_entry_points_return_the_same_results():
    report = Report(title="t", columns=("a", "b"))
    report.add_row(1, 2.5)
    expected_text = report.format()
    memory = MemoryHierarchy(DEFAULT_CONFIG)
    recorder = spans.SpanRecorder()
    saved = spans.install(recorder)
    try:
        assert report.format() == expected_text
        assert memory.warm_range(0x10000, 4096) is None
    finally:
        spans.uninstall(saved)
    assert [span["name"] for span in recorder.spans] == [
        "Report.format", "MemoryHierarchy.warm_range"]
    assert recorder.spans[1]["counts"]["warm_bytes"] == 4096
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original


def test_self_times_plus_other_equal_the_traced_wall():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    warm = recorder.wrap("MemoryHierarchy.warm_range", lambda: None)
    build = recorder.wrap("build_kernel_workload", lambda: None)

    def simulate():
        warm()
        warm()

    cpu = recorder.wrap("measure_indexing", simulate)
    widx = recorder.wrap("offload_probe", cpu)
    build()
    widx()
    wall = 40.0
    metrics = spans.layer_metrics(
        recorder.spans, wall, {"measured": 2, "failed": 0, "retries": 0})
    times = [value for name, value in metrics.items()
             if name.endswith("_s") and name != "harness.other_s"]
    assert sum(times) + metrics["harness.other_s"] == pytest.approx(wall)
    assert metrics["mem.warm_calls"] == 2
    assert metrics["mem.warm_s"] == 2.0
    assert metrics["cpu.sim_s"] == 5.0 - 2.0
    assert metrics["widx.sim_s"] == 2.0


def test_metric_and_workload_names_are_well_formed():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        bench = json.load(handle)
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]]
             + list(spans.LAYER_UNITS) + list(run.WORKLOADS))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert ([m["name"] for m in bench["end_to_end"]]
            == list(run.END_TO_END_UNITS))
    assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
            == spans.LAYER_UNITS)


def test_output_check_passes_on_the_golden_reports():
    goldens = check.golden_blocks(run.GOLDEN_DIR, [FIG8_GOLDEN])
    assert check.check_run(_fig8_run(), _reference()["kernel-build"],
                           goldens) == []


def test_corrupted_golden_fails_the_output_check(tmp_path):
    shutil.copy(os.path.join(run.GOLDEN_DIR, FIG8_GOLDEN), tmp_path)
    path = tmp_path / FIG8_GOLDEN
    path.write_text(path.read_text().replace("1.000", "1.001", 1))
    goldens = check.golden_blocks(str(tmp_path), [FIG8_GOLDEN])
    problems = check.check_run(_fig8_run(), _reference()["kernel-build"],
                               goldens)
    assert any("golden" in problem for problem in problems)


def test_output_check_flags_failures_and_missing_reports():
    broken = _fig8_run()
    broken["campaign"]["failures"] = ["widx/kernel/Large/4: error"]
    broken["text"] = _cli_text(check.report_blocks(broken["text"])[:1])
    problems = check.check_run(broken, _reference()["kernel-build"], None)
    assert len(problems) == 2
