"""Heuristic diameter bounds based on double-sweep BFS.

These are the cheap estimators used by the KADABRA driver to obtain an upper
bound on the *vertex diameter* (the number of vertices on a longest shortest
path), which enters the sample-size bound ω.  The paper computes the diameter
with the sequential algorithm of Borassi et al.; the two-sweep / four-sweep
heuristics below give the same kind of bounds at a few BFS's cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.graph.components import connected_components
from repro.graph.csr import CSRGraph
from repro.graph.traversal import bfs_distances

__all__ = ["DiameterEstimate", "double_sweep_estimate", "vertex_diameter_upper_bound"]


@dataclass
class DiameterEstimate:
    """Lower/upper bounds on the (edge-count) diameter of a graph."""

    lower: int
    upper: int

    @property
    def is_exact(self) -> bool:
        return self.lower == self.upper

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")


def _sweep_component(graph: CSRGraph, start: int, sweeps: int) -> Tuple[int, int, int]:
    """``(lower, upper, size)`` of the connected component containing ``start``."""
    lower, upper = 0, math.inf
    current = start
    for _ in range(max(1, sweeps)):
        result = bfs_distances(graph, current)
        ecc = result.eccentricity
        lower = max(lower, ecc)
        upper = min(upper, 2 * ecc)
        # Next sweep starts from a farthest vertex.
        current = int(result.deepest[0])
    # Sweep once from a vertex in the "middle" of the last long path, which
    # often has small eccentricity and therefore tightens the upper bound.
    result = bfs_distances(graph, current, keep_levels=True)
    mid = int(result.levels[result.eccentricity // 2][0])
    mid_ecc = bfs_distances(graph, mid).eccentricity
    lower = max(lower, mid_ecc)
    upper = max(min(upper, 2 * mid_ecc), lower)
    return lower, upper, result.num_reached


def double_sweep_estimate(graph: CSRGraph, *, sweeps: int = 4, seed: int | None = None) -> DiameterEstimate:
    """Lower and upper diameter bounds from a few BFS sweeps.

    The lower bound is the largest eccentricity observed.  The upper bound is
    ``min_v (2 * ecc(v))`` over the swept vertices (eccentricity of any vertex
    is at least half the diameter), additionally tightened by sweeping from a
    mid-point of the longest sweep path level structure.

    The sweeps start at a random vertex and cover its connected component.
    On a disconnected graph the diameter is the largest over the components,
    so every other component that could exceed the bound so far (one with
    ``k`` vertices has diameter at most ``k - 1``) is swept as well, from its
    smallest vertex, largest component first.
    """
    n = graph.num_vertices
    if n == 0:
        return DiameterEstimate(0, 0)
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, n))
    lower, upper, size = _sweep_component(graph, start, sweeps)
    if size < n:
        components = connected_components(graph)
        # Stable, so equal sizes go smallest id first.
        for component in np.argsort(-components.sizes, kind="stable"):
            if components.sizes[component] - 1 <= upper:
                break
            if component == components.labels[start]:
                continue
            first = int(np.argmax(components.labels == component))
            other_lower, other_upper, _ = _sweep_component(graph, first, sweeps)
            lower = max(lower, other_lower)
            upper = max(upper, other_upper)
    return DiameterEstimate(lower=lower, upper=upper)


def vertex_diameter_upper_bound(graph: CSRGraph, *, seed: int | None = None) -> int:
    """Upper bound on the *vertex diameter* used by KADABRA's ω computation.

    The vertex diameter is the number of vertices on a longest shortest path,
    i.e. the (edge) diameter plus one.  The bound returned is
    ``double_sweep_estimate(...).upper + 1``, which holds for every connected
    component of the graph, and never less than 2 for graphs with at least
    one edge.
    """
    if graph.num_vertices == 0:
        return 0
    estimate = double_sweep_estimate(graph, seed=seed)
    vd = estimate.upper + 1
    if graph.num_edges > 0:
        vd = max(vd, 2)
    return int(vd)
