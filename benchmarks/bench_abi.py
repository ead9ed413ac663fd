"""Benchmark gate for the wavefront kernel behind the kernel ABI.

The regime the cross-sample vectorized wavefront backend targets is a tiny
sparse RMAT graph sampled in whole-slab batches, where the per-pair kernels
are all numpy dispatch.  Routed through the ABI (``kernel="wavefront"``) it is
timed there against the default search (``kernel="bidirectional"``: the
compiled search wherever the C helper builds, the per-pair numpy search
otherwise), both through :class:`repro.kernels.BatchPathSampler`, so the
measured difference is the kernel, not the driver.

The gate used to be that ratio (>= 2x; 2.2-2.7x measured).  The per-pair
kernel has since got 1.3-1.7x faster on this graph (the shared level step,
``repro.kernels.scratch.settle_level``) while the wavefront's own rate did not
move, which takes the ratio to ~1.6 without the wavefront being any worse.  So
the floor is now on the wavefront's own rate, in units of a yardstick no
kernel change touches — the pre-kernel scalar pipeline of
``bench_kernels.py`` (``tests/reference_samplers.py``): at least **2.5x** (3.0-4.3x
measured over six runs at the commit that set it, on both sides of the
per-pair change; the old gate had the same headroom).  The ratio over the
default search is still reported, as ``speedup_over_default``: ~1.6 over the
numpy search, ~0.01 over the compiled one.
``test_wavefront_rate_over_reference`` asserts the floor outright; running the
module as a script records the numbers into a ``BENCH_abi.json`` artifact for
CI::

    python benchmarks/bench_abi.py [output.json]
    python -m pytest benchmarks/bench_abi.py --benchmark-only
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from bench_kernels import _scalar_samples_per_sec

from repro.core.state_frame import StateFrame
from repro.graph.generators import rmat_graph
from repro.kernels import BatchPathSampler

pytestmark = pytest.mark.benchmark(group="abi")

#: RMAT recursion depth / edge factor: n = 2^11 vertices, ~1.5 * n edges.
#: Small enough that a CI runner finishes in seconds, large enough that the
#: wavefront's per-numpy-call amortisation dominates its gather overhead.
RMAT_SCALE = 11
RMAT_EDGE_FACTOR = 1.5

#: Lanes per wavefront chunk; matches the kernel's preferred batch so a batch
#: runs as one slab pass.
BATCH_SIZE = 2048
NUM_SAMPLES = 4096

#: Required samples/sec ratio of the wavefront over the scalar reference.
REQUIRED_OVER_REFERENCE = 2.5


def _load_rmat_graph():
    return rmat_graph(RMAT_SCALE, RMAT_EDGE_FACTOR, seed=42)


def _samples_per_sec(graph, kernel: str, num_samples: int, *, seed: int = 1) -> float:
    """Samples/sec of one registered kernel through the batch pipeline.

    The per-pair kernel draws each pair right before its search, as every
    driver does, so the ratio is the speedup a caller actually gains by
    opting into the wavefront.
    """
    sampler = BatchPathSampler(graph, kernel=kernel)
    rng = np.random.default_rng(seed)
    frame = StateFrame.zeros(graph.num_vertices)
    sampler.sample_batch(BATCH_SIZE, rng)  # warm-up
    start = time.perf_counter()
    done = 0
    while done < num_samples:
        take = min(BATCH_SIZE, num_samples - done)
        frame.record_batch(sampler.sample_batch(take, rng))
        done += take
    return num_samples / (time.perf_counter() - start)


def measure(num_samples: int = NUM_SAMPLES, *, repeats: int = 4) -> dict:
    """Measure the kernels and the yardstick on the RMAT graph; returns the report.

    All three are timed alternately inside each repeat and the best rate of
    each is kept, so a transient stall on a shared CI runner (or thermal
    throttling mid-run) cannot fail the gate one-sidedly.
    """
    graph = _load_rmat_graph()
    wavefront = per_pair = reference = 0.0
    for _ in range(repeats):
        wavefront = max(wavefront, _samples_per_sec(graph, "wavefront", num_samples))
        per_pair = max(per_pair, _samples_per_sec(graph, "bidirectional", num_samples))
        reference = max(reference, _scalar_samples_per_sec(graph, num_samples))
    return {
        "graph": f"rmat(scale={RMAT_SCALE}, edge_factor={RMAT_EDGE_FACTOR}, seed=42)",
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_samples": num_samples,
        "batch_size": BATCH_SIZE,
        "bidirectional_samples_per_sec": round(per_pair, 1),
        "wavefront_samples_per_sec": round(wavefront, 1),
        "reference_samples_per_sec": round(reference, 1),
        "speedup_over_default": round(wavefront / per_pair, 2),
        "speedup_over_reference": round(wavefront / reference, 2),
        "required_over_reference": REQUIRED_OVER_REFERENCE,
    }


def test_wavefront_rate_over_reference():
    """The headline acceptance assertion: >= 2.5x the scalar reference on RMAT."""
    report = measure()
    assert report["speedup_over_reference"] >= REQUIRED_OVER_REFERENCE, (
        f"wavefront kernel is only {report['speedup_over_reference']}x the scalar "
        f"reference ({report['wavefront_samples_per_sec']} vs "
        f"{report['reference_samples_per_sec']} samples/s)"
    )


def test_per_pair_pipeline(benchmark):
    graph = _load_rmat_graph()
    sampler = BatchPathSampler(graph, kernel="bidirectional")
    rng = np.random.default_rng(3)
    frame = StateFrame.zeros(graph.num_vertices)

    def one_batch():
        batch = sampler.sample_batch(BATCH_SIZE, rng)
        frame.record_batch(batch)
        return batch

    batch = benchmark(one_batch)
    assert batch.num_samples == BATCH_SIZE


def test_wavefront_pipeline(benchmark):
    graph = _load_rmat_graph()
    sampler = BatchPathSampler(graph, kernel="wavefront")
    rng = np.random.default_rng(3)
    frame = StateFrame.zeros(graph.num_vertices)

    def one_batch():
        batch = sampler.sample_batch(BATCH_SIZE, rng)
        frame.record_batch(batch)
        return batch

    batch = benchmark(one_batch)
    assert batch.num_samples == BATCH_SIZE


def main(argv: list[str]) -> int:
    output = Path(argv[1]) if len(argv) > 1 else Path("BENCH_abi.json")
    report = measure()
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if report["speedup_over_reference"] < REQUIRED_OVER_REFERENCE:
        print(
            f"FAIL: {report['speedup_over_reference']}x the scalar reference, "
            f"below required {REQUIRED_OVER_REFERENCE}x",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: the wavefront kernel is {report['speedup_over_reference']}x the scalar "
        f"reference and {report['speedup_over_default']}x the default search"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
