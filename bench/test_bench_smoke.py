"""Smoke test of the benchmark harness: it runs, and it emits what it declares.

``bench/run.py --quick`` pushes tiny inputs through every path once (numbers
discarded); this test holds the output schema and keeps the metric and
workload names of ``BENCHMARK.json`` and of the harness equal in both
directions, so a rename on either side is caught by the tier-1 run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_quick_run_emits_exactly_the_declared_names(tmp_path):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(BENCH))
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in declared[key]]
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    assert declared["paths"] == ["bench"]

    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--workload", "road", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in declared[key]}
    assert set(line["metrics"]) == set(units)
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))

    result = json.loads(out.read_text())
    assert {"nproc", "loadavg", "python", "numpy", "git_sha"} <= set(result["fingerprint"])
    for family in ("end_to_end", "per_layer"):
        workload = result["passes"][family]["road"]
        assert {"spin_before_s", "spin_after_s", "noisy", "checks", "attempted", "failed"} <= set(workload)
        assert all(check["ok"] for check in workload["checks"])
