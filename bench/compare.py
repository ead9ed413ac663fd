#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``: one row per workload x end-to-end metric.

    python bench/compare.py A.json B.json

``A`` is the base.  Each row gives both values, the change of ``B`` as a share
of ``A`` (positive means worse, whatever the metric's direction), the metric's
bound from ``BENCHMARK.json`` and a verdict:

* ``better`` / ``worse`` - moved by more than the bound;
* ``within-bound`` - did not;
* ``unresolved`` - either run was marked ``noisy`` (its spin before and after
  differed by more than 15%) or the metric is missing on one side, so the
  row says nothing.

Exits non-zero if any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent


def compare(base: dict, other: dict, declared: dict) -> List[dict]:
    rows = []
    base_pass = base["passes"].get("end_to_end", {})
    other_pass = other["passes"].get("end_to_end", {})
    for workload in (w["name"] for w in declared["workloads"]):
        a, b = base_pass.get(workload), other_pass.get(workload)
        if a is None and b is None:
            continue
        for metric in declared["end_to_end"]:
            name = metric["name"]
            row = {"workload": workload, "metric": name, "unit": metric["unit"], "bound": metric["bound"]}
            va = a["metrics"].get(name) if a else None
            vb = b["metrics"].get(name) if b else None
            row["base"], row["other"] = va, vb
            if va is None or vb is None or va == 0:
                row["worse_by"], row["verdict"] = None, "unresolved"
            else:
                change = (vb - va) / va
                row["worse_by"] = change if metric["better"] == "lower" else -change
                if a["noisy"] or b["noisy"] or a["failed"] or b["failed"]:
                    row["verdict"] = "unresolved"
                elif row["worse_by"] > metric["bound"]:
                    row["verdict"] = "worse"
                elif row["worse_by"] < -metric["bound"]:
                    row["verdict"] = "better"
                else:
                    row["verdict"] = "within-bound"
            rows.append(row)
    return rows


def print_rows(rows: List[dict]) -> None:
    print(f"\n{'workload':<12} {'metric':<28} {'unit':<5} {'base':>12} {'other':>12} {'worse by':>9} {'bound':>6}  verdict")
    for row in rows:
        worse_by = "-" if row["worse_by"] is None else f"{100 * row['worse_by']:+.1f}%"
        base = "-" if row["base"] is None else f"{row['base']:.5g}"
        other = "-" if row["other"] is None else f"{row['other']:.5g}"
        print(
            f"{row['workload']:<12} {row['metric']:<28} {row['unit']:<5} {base:>12} {other:>12} "
            f"{worse_by:>9} {100 * row['bound']:>5.0f}%  {row['verdict']}"
        )


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(json.loads(Path(argv[1]).read_text()), json.loads(Path(argv[2]).read_text()), declared)
    print_rows(rows)
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
