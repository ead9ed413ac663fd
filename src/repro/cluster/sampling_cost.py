"""Per-sample cost model.

Each KADABRA sample is one (bidirectional) BFS; its cost is essentially the
number of adjacency entries touched times the per-edge traversal time of the
machine.  Two ways to obtain the edges-touched figure:

* :func:`measure_edges_per_sample` runs the actual sampler on the (proxy)
  graph and averages the ``edges_touched`` counter of the returned samples -
  the rows the search actually read, i.e. those of the frontiers it expanded,
  not of every frontier it settled - the most faithful option, used when a
  concrete :class:`CSRGraph` exists;
* :func:`estimate_edges_per_sample` is an analytic estimate from ``|V|``,
  ``|E|`` and the diameter, used for the paper-scale instances of Table I/II
  whose billion-edge graphs cannot be instantiated here: on complex networks
  the bidirectional search is dominated by its last frontier
  (≈ ``4·(2m)^(2/3)`` adjacency entries with a Graph500-like degree skew),
  while on sparse road networks (average degree below ~8) the two BFS balls
  cover essentially the whole graph — with poor locality — before they meet.

The constants were fitted so that the implied per-sample times on the paper's
instances match the throughputs that can be derived from Table II within a
small factor (orkut ≈ 6 ms, roadNet-PA ≈ 25-30 ms, uk-2007 ≈ 45-55 ms per
sample and thread).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.machine import MachineSpec
from repro.kernels import BatchPathSampler

__all__ = [
    "measure_edges_per_sample",
    "estimate_edges_per_sample",
    "sample_seconds",
]

#: Average degree below which a graph is treated as a road-network-like
#: instance (near-planar, high diameter, poor BFS locality) by the analytic
#: estimate.  Road networks have average degree < 4; the complex networks of
#: Table I all exceed 30.
ROAD_AVG_DEGREE_THRESHOLD = 8.0


def measure_edges_per_sample(
    sampler: BatchPathSampler,
    *,
    num_probes: int = 64,
    seed: int | None = 0,
) -> float:
    """Average adjacency entries touched per sample, measured empirically."""
    if num_probes <= 0:
        raise ValueError("num_probes must be positive")
    batch = sampler.sample_batch(num_probes, np.random.default_rng(seed))
    return batch.total_edges_touched / float(num_probes)


def estimate_edges_per_sample(num_vertices: int, num_edges: int, diameter: int) -> float:
    """Analytic estimate of adjacency entries touched per bidirectional sample."""
    if num_vertices <= 0 or num_edges < 0 or diameter < 0:
        raise ValueError("graph statistics must be non-negative (and n > 0)")
    directed_entries = 2.0 * num_edges
    avg_degree = directed_entries / num_vertices
    if avg_degree <= ROAD_AVG_DEGREE_THRESHOLD and diameter > 32:
        # Road networks: both BFS balls traverse essentially the whole graph
        # with poor cache locality and hundreds of frontier levels; the
        # effective cost corresponds to about two full adjacency scans.
        return 2.0 * directed_entries
    # Complex networks: the bidirectional search stops after covering roughly
    # the last frontier, which grows like the 2/3 power of the edge count.
    return float(min(directed_entries, 4.0 * directed_entries ** (2.0 / 3.0)))


def sample_seconds(
    edges_per_sample: float,
    machine: MachineSpec,
    *,
    numa_local: bool = True,
) -> float:
    """Wall-clock seconds one thread needs for one sample."""
    if edges_per_sample < 0:
        raise ValueError("edges_per_sample must be non-negative")
    penalty = 1.0 if numa_local else machine.numa_remote_penalty
    return edges_per_sample * machine.edge_traversal_seconds * penalty
