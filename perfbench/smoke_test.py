"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
asserts that the last line of output parses and carries every metric the
file names, with its unit.  Also checks that the benchmark refuses to run,
without printing a result, where there is no program to measure.

    python3 perfbench/smoke_test.py
    python3 -m pytest perfbench/smoke_test.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = "2"


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", SMOKE_SECONDS,
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180, check=False)


def _check_result(stdout: str, metrics: list[dict]) -> None:
    doc = json.loads(stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc
    assert doc["correct"] is True and doc["failed"] == 0, doc
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert set(doc["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        assert math.isfinite(got["value"]), (m["name"], got)


def test_every_metric_printed():
    spec = _spec()
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload["name"], trace)
            assert proc.returncode == 0, proc.stderr
            _check_result(proc.stdout, spec[key])


def test_refuses_without_program():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run(bare, _spec()["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_every_metric_printed()
    test_refuses_without_program()
    print("smoke test passed")
