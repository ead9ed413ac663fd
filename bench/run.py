#!/usr/bin/env python3
"""One benchmark for the whole stack.

    python bench/run.py                         # both workloads, end to end then traced
    python bench/run.py --workload road --trace 0
    python bench/run.py --workload rmat --trace 1          # the per-layer ladder
    python bench/run.py --check-repeat          # run the end-to-end pass twice, compare

Each workload runs in a fresh subprocess that is its own session; the parent
times a fixed spin before and after it (noise guard), kills the whole process
group when the workload ends, and fails the workload if any of its processes
outlived it.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: Hard limit of one workload subprocess; the contract allows a run 180 s.
WORKLOAD_TIMEOUT_S = 170.0
#: Two spins that differ by more than this mark the workload ``noisy``.
NOISE_LIMIT = 0.15


def load_declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spin() -> float:
    """Median time of the harness's reference computation; the noise probe.

    The first few hundred milliseconds after an idle period run faster than
    sustained work on a small VM, so the computation warms up before it is timed.
    """
    from workloads import SpeedProbe

    probe = SpeedProbe()
    for _ in range(2):
        probe.sample()
    return sorted(probe.sample() for _ in range(5))[2]


def fingerprint() -> dict:
    import numpy as np

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
    }


# --------------------------------------------------------------------------- #
# process hygiene


def session_members(sid: int) -> List[int]:
    """Pids of live processes in session ``sid`` (Linux ``/proc``)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command name: state ppid pgrp session
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


def kill_session(sid: int) -> None:
    for pid in session_members(sid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_child(argv: List[str], result_path: Path) -> dict:
    """Run one workload subprocess in its own session; return its result.

    The result carries ``strays``: processes of the workload's session still
    alive after it exited (a ``repro.cli dist worker`` or
    ``repro.service.worker`` that outlived its workload halves every later
    rate).  They are killed here and counted as failed operations.
    """
    result_path.unlink(missing_ok=True)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--child", "--result", str(result_path), *argv],
        stdout=sys.stderr,  # the child's chatter must not end up after our JSON line
        start_new_session=True,
    )
    try:
        try:
            code = proc.wait(timeout=WORKLOAD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        strays = session_members(proc.pid)
    finally:
        kill_session(proc.pid)
        proc.wait()
    if code is None:
        raise SystemExit(f"workload subprocess exceeded {WORKLOAD_TIMEOUT_S:.0f}s and was killed")
    if code != 0 or not result_path.exists():
        raise SystemExit(f"workload subprocess failed with exit code {code}")
    result = json.loads(result_path.read_text())
    result["strays"] = len(strays)
    return result


def child_main(args: argparse.Namespace) -> int:
    """Body of the workload subprocess: run, derive metrics, write the result file."""
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer
    from workloads import WORKLOADS, Run, run_workload

    if args.quick:
        # On tiny graphs routing picks the pure-Python kernel, which holds the
        # GIL and makes every threaded or socket epoch overshoot for seconds.
        os.environ["REPRO_KERNEL"] = "bidirectional"
    work = OUT / "work" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    run = Run(
        workload=WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        quick=args.quick,
        work=work,
        tracer=tracer,
    )
    started = time.perf_counter()
    if tracer is None:
        metrics = run_workload(run)["end_to_end"]
    else:
        from ladder import per_layer_metrics

        with tracer.span("bench.run", workload=args.workload) as root:
            metrics = run_workload(run, per_layer_metrics)["per_layer"]
        self_times = tracer.self_times()
        run.check(
            "trace: self times sum to the root span within 5%",
            abs(sum(self_times.values()) - (root["end"] - root["start"]))
            <= 0.05 * (root["end"] - root["start"]),
        )
        run.check(
            "trace: every span but the root has a parent",
            all(s["parent"] is not None for s in tracer.spans[1:]),
        )
        run.info["self_seconds"] = self_times
        tracer.write(OUT / f"trace-{args.workload}.jsonl")
    Path(args.result).write_text(
        json.dumps(
            {
                "workload": args.workload,
                "metrics": metrics,
                "attempted": run.attempted,
                "failed": run.failed,
                "correct": run.correct,
                "checks": run.checks,
                "errors": run.errors,
                "info": run.info,
                "harness_s": run.harness_s,
                "wall_s": time.perf_counter() - started,
            }
        )
    )
    shutil.rmtree(work, ignore_errors=True)
    return 0


# --------------------------------------------------------------------------- #
# the parent: one pass over the chosen workloads


def run_pass(workloads: List[str], trace: int, args: argparse.Namespace, declared: dict) -> Dict[str, dict]:
    """Run ``workloads`` one after the other; returns per-workload results."""
    family = "per_layer" if trace else "end_to_end"
    expected = {m["name"] for m in declared[family]}
    results = {}
    for name in workloads:
        before = spin()
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
        if args.quick:
            argv.append("--quick")
        result = run_child(argv, OUT / f"child-{name}-trace{trace}.json")
        after = spin()
        if trace:
            result["metrics"]["bench.spin_before_s"] = before
            result["metrics"]["bench.spin_after_s"] = after
        if set(result["metrics"]) != expected:
            raise SystemExit(
                f"{name}: emitted metrics differ from BENCHMARK.json {family}: "
                f"missing {sorted(expected - set(result['metrics']))} "
                f"extra {sorted(set(result['metrics']) - expected)}"
            )
        result["failed"] += result.pop("strays")
        result["spin_before_s"], result["spin_after_s"] = before, after
        result["noisy"] = abs(after - before) > NOISE_LIMIT * min(before, after)
        results[name] = result
        print_table(name, family, result, declared)
    return results


def print_table(name: str, family: str, result: dict, declared: dict) -> None:
    units = {m["name"]: m["unit"] for m in declared[family]}
    flags = (["noisy"] if result["noisy"] else []) + ([] if result["correct"] else ["INCORRECT"])
    print(
        f"\n== {name} [{family}] attempted {result['attempted']} failed {result['failed']} "
        f"wall {result['wall_s']:.1f}s harness {result['harness_s']:.1f}s "
        f"spin {result['spin_before_s']:.4f}/{result['spin_after_s']:.4f}s {' '.join(flags)}"
    )
    samples = result["info"].get("samples", {})
    for metric, value in result["metrics"].items():
        extra = samples.get(metric)
        note = (
            f"  (n={extra['n']} min={extra['min']:.6g} max={extra['max']:.6g}; uncorrected {extra['raw_median']:.6g})"
            if extra
            else ""
        )
        print(f"  {metric:<36} {value:>14.6g} {units[metric]}{note}")
    for check in result["checks"]:
        if not check["ok"]:
            print(f"  FAILED CHECK: {check['name']} {check['detail']}")
    for error in result["errors"][:5]:
        print(f"  FAILED OPERATION: {error}")


def final_line(passes: Dict[str, Dict[str, dict]], declared: dict, single: Optional[str]) -> dict:
    """The contract's last line; with several workloads metric names get a ``<workload>.`` prefix."""
    metrics: Dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for family, results in passes.items():
        units = {m["name"]: m["unit"] for m in declared[family]}
        for name, result in results.items():
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, value in result["metrics"].items():
                key = metric if single else f"{name}.{metric}"
                metrics[key] = {"value": value, "unit": units[metric]}
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}


def run_suite(args: argparse.Namespace, declared: dict, traces: List[int]) -> dict:
    workloads = [args.workload] if args.workload else [w["name"] for w in declared["workloads"]]
    passes = {
        ("per_layer" if trace else "end_to_end"): run_pass(workloads, trace, args, declared)
        for trace in traces
    }
    return {
        "fingerprint": fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "passes": passes,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload (default: both)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per run")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
        help="0: end-to-end metrics, tracing off; 1: per-layer metrics (default: both passes)",
    )
    parser.add_argument("--out", type=Path, help="write the full result file here")
    parser.add_argument("--quick", action="store_true", help="tiny inputs, numbers meaningless (smoke test)")
    parser.add_argument("--check-repeat", action="store_true", help="run the end-to-end pass twice and compare")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print("bench/run.py: no program to measure (src/repro or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    declared = load_declaration()
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    if args.workload is not None and args.workload not in {w["name"] for w in declared["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.child:
        return child_main(args)

    OUT.mkdir(parents=True, exist_ok=True)
    # A Ctrl-C or TERM must not leave rank or worker processes behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.check_repeat:
        from compare import compare, print_rows

        first = run_suite(args, declared, [0])
        second = run_suite(args, declared, [0])
        rows = compare(first, second, declared)
        print_rows(rows)
        suite = second
        agree = all(row["verdict"] == "within-bound" for row in rows)
    else:
        suite = run_suite(args, declared, [0, 1] if args.trace is None else [args.trace])
        agree = True
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(suite, indent=1, sort_keys=True) + "\n")
    line = final_line(suite["passes"], declared, args.workload)
    print(json.dumps(line))
    return 0 if line["correct"] and agree else 1


if __name__ == "__main__":
    sys.exit(main())
