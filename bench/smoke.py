#!/usr/bin/env python3
"""Smoke test of the benchmark itself; it asserts no timing threshold.

    python3 bench/smoke.py            # or: python -m pytest bench/smoke.py

Runs every workload at the shortest length, timed and traced, and
checks that:

- every metric named in BENCHMARK.json is printed with its unit;
- the report carries the provenance, the tail percentile and
  ``failed_ratio``;
- the output checks ran on every op;
- two timed runs with the same seed attempt and fail the same ops;
- the traced counts are identical across two traced runs;
- without ``src/`` the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_UNITS = ("count", "B")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_lines(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def assert_metrics(printed: dict, declared: list):
    assert sorted(printed) == sorted(m["name"] for m in declared)
    for metric in declared:
        value = printed[metric["name"]]
        assert value["unit"] == metric["unit"], metric["name"]
        assert isinstance(value["value"], (int, float)), metric["name"]


def assert_result(report: dict, result: dict):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, report["checks"]
    assert result["attempted"] >= 1
    assert report["checks"]["attempted"] == result["attempted"], "output checks did not run"
    assert set(report["provenance"]) >= {"python", "numpy", "nproc", "cpu", "seed", "seconds", "commit"}


def test_timed_runs():
    for workload in WORKLOADS:
        report, result = result_lines(run(workload, 0))
        assert_result(report, result)
        _, again = result_lines(run(workload, 0))
        assert (again["attempted"], again["failed"]) == (result["attempted"], result["failed"]), workload
        assert_metrics(result["metrics"], SPEC["end_to_end"])
        assert report["metrics"]["failed_ratio"]["unit"] == "ratio"
        assert report["metrics"]["failed_ratio"]["value"] == result["failed"] / result["attempted"]
        assert {"percentile", "beyond", "samples"} <= set(report["tail"])
        if workload == "render":
            assert report["svg_sha256"], "SVG digests were not recorded"


def test_traced_runs_repeat_their_counts():
    for workload in WORKLOADS:
        runs = [result_lines(run(workload, 1)) for _ in range(2)]
        counts = []
        for report, result in runs:
            assert_result(report, result)
            assert_metrics(result["metrics"], SPEC["per_layer"])
            counts.append({name: m["value"] for name, m in result["metrics"].items()
                           if m["unit"] in EXACT_UNITS})
            assert report["span_counts"]
            assert set(report["per_call_source"].values()) <= {"workload", "reference"}
        assert counts[0] == counts[1], workload
        assert runs[0][0]["span_counts"] == runs[1][0]["span_counts"], workload
        probe = runs[0][1]["metrics"]
        assert probe["probe.contains_point.canonicalize_calls"]["value"] > 0
        assert probe["probe.contains_point.cycle_constructions"]["value"] > 0


def test_refuses_without_sources():
    (ROOT / ".bench-out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=ROOT / ".bench-out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_refuses_without_sources, test_timed_runs, test_traced_runs_repeat_their_counts):
        test()
        print(f"ok {test.__name__}")
