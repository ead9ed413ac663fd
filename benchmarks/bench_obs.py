"""Overhead gate for the observability layer.

The instrumentation contract of :mod:`repro.obs`: when nothing is collecting,
metrics and tracing must be *provably* cheap — the sampling pipeline's
samples/sec with metrics enabled must stay within **5%** of the fully
disabled run, and a disabled-tracing span entry must stay a shared no-op.
The gate drives the same batched pipeline the drivers use (the sampler's
batch call carries the only hot-path instrumentation point) so a regression
that puts work on the per-batch path fails CI rather than surfacing in a
paper-scale run::

    python benchmarks/bench_obs.py [output.json]
    python -m pytest benchmarks/bench_obs.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.state_frame import StateFrame
from repro.graph.io import read_edge_list
from repro.kernels import BatchPathSampler, plan_batches
from repro.obs import disable_metrics, disable_tracing, enable_metrics, get_registry

pytestmark = pytest.mark.benchmark(group="obs")

EXAMPLE_GRAPH = Path(__file__).resolve().parent.parent / "examples" / "data" / "example-social.txt"

#: Lowest accepted (enabled samples/sec) / (disabled samples/sec) ratio.
MAX_OVERHEAD_RATIO = 0.95


def _load_example_graph():
    return read_edge_list(EXAMPLE_GRAPH)


def _pipeline_samples_per_sec(graph, num_samples: int, *, seed: int = 1) -> float:
    """Samples/sec of the batched pipeline as the drivers run it.

    Batches are sized by ``plan_batches`` and drawn by ``sample_batch`` —
    the instrumented call — so the measured rate includes whatever cost the
    metrics gate leaves on the per-batch path.
    """
    sampler = BatchPathSampler(graph)
    rng = np.random.default_rng(seed)
    frame = StateFrame.zeros(graph.num_vertices)
    sampler.sample_batch(max(1, num_samples // 10), rng)  # warm-up
    start = time.perf_counter()
    for take in plan_batches(num_samples, "auto"):
        frame.record_batch(sampler.sample_batch(take, rng))
    return num_samples / (time.perf_counter() - start)


def measure(num_samples: int = 3000, *, repeats: int = 3) -> dict:
    """Measure the pipeline with metrics off and on; returns the report dict.

    Best-of-``repeats`` per configuration, so a transient stall on a shared
    CI runner cannot fail the ratio gate.  The registry is cleared between
    runs so the enabled run always pays the real series-update path.
    """
    graph = _load_example_graph()
    disable_tracing()
    disable_metrics()
    try:
        disabled = max(
            _pipeline_samples_per_sec(graph, num_samples) for _ in range(repeats)
        )
        enable_metrics()
        get_registry().clear()
        enabled = max(
            _pipeline_samples_per_sec(graph, num_samples) for _ in range(repeats)
        )
    finally:
        disable_metrics()
    return {
        "graph": str(EXAMPLE_GRAPH.name),
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_samples": num_samples,
        "disabled_samples_per_sec": round(disabled, 1),
        "enabled_samples_per_sec": round(enabled, 1),
        "ratio": round(enabled / disabled, 4),
        "max_overhead_ratio": MAX_OVERHEAD_RATIO,
    }


def test_metrics_overhead_within_bound():
    """The headline assertion: metrics keep >= 95% of the disabled rate."""
    report = measure()
    assert report["ratio"] >= MAX_OVERHEAD_RATIO, (
        f"metrics-enabled pipeline runs at {report['ratio']:.1%} of the "
        f"disabled rate ({report['enabled_samples_per_sec']} vs "
        f"{report['disabled_samples_per_sec']} samples/s)"
    )


def test_enabled_run_counts_samples():
    """The enabled run must actually exercise the counters it claims to gate."""
    graph = _load_example_graph()
    enable_metrics()
    try:
        get_registry().clear()
        _pipeline_samples_per_sec(graph, 500)
        snapshot = get_registry().snapshot()
    finally:
        disable_metrics()
    series = dict(
        (tuple(labels), value)
        for labels, value in snapshot["repro_kernel_samples_total"]["series"]
    )
    # Every drawn sample counts: the 50 of the warm-up and the planned 500.
    assert series[()] == 550.0


def main(argv: list[str]) -> int:
    output = Path(argv[1]) if len(argv) > 1 else Path("BENCH_obs.json")
    report = measure()
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if report["ratio"] < MAX_OVERHEAD_RATIO:
        print(
            f"FAIL: enabled/disabled ratio {report['ratio']} below required "
            f"{MAX_OVERHEAD_RATIO}",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: metrics-enabled sampling keeps {report['ratio']:.1%} of the "
        f"disabled rate"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
