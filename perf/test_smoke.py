"""Smoke test of the benchmark: ``--quick`` runs every workload in both
passes with zero failures, and every metric name of ``BENCHMARK.json``
is printed exactly once per workload.

Not part of tier-1 (``testpaths = ["tests"]``); run it with
``python -m pytest perf/test_smoke.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_every_metric_once(workload, trace):
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "perf" / "run.py"), "--quick",
            "--workload", workload, "--seed", "3", "--trace", str(trace),
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    *report, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1

    section = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for spec in section:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    words = " ".join(report).split()
    for spec in section:
        assert words.count(spec["name"]) == 1, spec["name"]
    if trace:
        assert f"trace_overhead {workload}:" in done.stdout
        assert (ROOT / "perf" / "out" / f"trace-{workload}.json").is_file()
    else:
        for spec in section:
            assert result["metrics"][spec["name"]]["value"] > 0, spec["name"]
