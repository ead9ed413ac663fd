"""Benchmarks of the batched sampling kernels vs. the legacy scalar path.

The acceptance bar for the kernel subsystem: driving the sampling pipeline
through :class:`repro.kernels.BatchPathSampler` (pooled scratch, flat-array
contributions, single ``np.add.at`` accumulation per batch) must deliver at
least **5x** the samples/sec of the legacy scalar pipeline (fresh O(n)
allocations per sample, one ``PathSample`` object and one
``StateFrame.record_sample`` call each) on the bundled example graph.
``test_batched_speedup_over_scalar`` asserts the ratio outright; running the
module as a script records the numbers into a ``BENCH_kernels.json`` artifact
for CI::

    python benchmarks/bench_kernels.py [output.json]
    python -m pytest benchmarks/bench_kernels.py --benchmark-only
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
from repro.kernels import BatchPathSampler

# The legacy sampler is the tests' oracle and lives with them.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_samplers import ReferenceBidirectionalSampler  # noqa: E402

pytestmark = pytest.mark.benchmark(group="kernels")

EXAMPLE_GRAPH = Path(__file__).resolve().parent.parent / "examples" / "data" / "example-social.txt"

#: Required samples/sec ratio of the batched kernel over the legacy pipeline.
REQUIRED_SPEEDUP = 5.0


def _load_example_graph():
    return read_edge_list(EXAMPLE_GRAPH)


def _scalar_samples_per_sec(graph, num_samples: int, *, seed: int = 1) -> float:
    """The pre-kernel pipeline: allocate-per-sample, record one at a time."""
    sampler = ReferenceBidirectionalSampler(graph)
    rng = np.random.default_rng(seed)
    frame = StateFrame.zeros(graph.num_vertices)
    for _ in range(num_samples // 10):  # warm-up
        sampler.sample(rng)
    start = time.perf_counter()
    for _ in range(num_samples):
        sample = sampler.sample(rng)
        frame.record_sample(sample.internal_vertices, edges_touched=sample.edges_touched)
    return num_samples / (time.perf_counter() - start)


def _batched_samples_per_sec(
    graph, num_samples: int, *, seed: int = 1, batch_size: int = 512
) -> float:
    """The kernel pipeline: pooled batch sampling, batch accumulation."""
    sampler = BatchPathSampler(graph)
    rng = np.random.default_rng(seed)
    frame = StateFrame.zeros(graph.num_vertices)
    sampler.sample_batch(max(1, num_samples // 10), rng)  # warm-up
    start = time.perf_counter()
    done = 0
    while done < num_samples:
        take = min(batch_size, num_samples - done)
        frame.record_batch(sampler.sample_batch(take, rng))
        done += take
    return num_samples / (time.perf_counter() - start)


def measure(num_samples: int = 3000, *, repeats: int = 3) -> dict:
    """Measure both pipelines on the bundled graph; returns the report dict.

    Each pipeline is timed ``repeats`` times and the best rate is kept, so a
    transient stall on a shared CI runner cannot fail the ratio gate.
    """
    graph = _load_example_graph()
    scalar = max(_scalar_samples_per_sec(graph, num_samples) for _ in range(repeats))
    batched = max(_batched_samples_per_sec(graph, num_samples) for _ in range(repeats))
    return {
        "graph": str(EXAMPLE_GRAPH.name),
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_samples": num_samples,
        "scalar_samples_per_sec": round(scalar, 1),
        "batched_samples_per_sec": round(batched, 1),
        "speedup": round(batched / scalar, 2),
        "required_speedup": REQUIRED_SPEEDUP,
    }


def test_batched_speedup_over_scalar():
    """The headline acceptance assertion: >= 5x samples/sec."""
    report = measure()
    assert report["speedup"] >= REQUIRED_SPEEDUP, (
        f"batched kernel is only {report['speedup']}x the scalar pipeline "
        f"({report['batched_samples_per_sec']} vs {report['scalar_samples_per_sec']} samples/s)"
    )


def test_scalar_pipeline(benchmark):
    graph = _load_example_graph()
    sampler = ReferenceBidirectionalSampler(graph)
    rng = np.random.default_rng(3)
    frame = StateFrame.zeros(graph.num_vertices)

    def one_sample():
        sample = sampler.sample(rng)
        frame.record_sample(sample.internal_vertices, edges_touched=sample.edges_touched)
        return sample

    sample = benchmark(one_sample)
    assert sample.source != sample.target


def test_batched_pipeline(benchmark):
    graph = _load_example_graph()
    sampler = BatchPathSampler(graph)
    rng = np.random.default_rng(3)
    frame = StateFrame.zeros(graph.num_vertices)

    def one_batch():
        batch = sampler.sample_batch(256, rng)
        frame.record_batch(batch)
        return batch

    batch = benchmark(one_batch)
    assert batch.num_samples == 256


def main(argv: list[str]) -> int:
    output = Path(argv[1]) if len(argv) > 1 else Path("BENCH_kernels.json")
    report = measure()
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if report["speedup"] < REQUIRED_SPEEDUP:
        print(
            f"FAIL: speedup {report['speedup']}x below required {REQUIRED_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    print(f"OK: batched kernels are {report['speedup']}x the scalar pipeline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
