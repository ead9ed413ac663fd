"""Road-network-like generators (high-diameter, near-planar graphs).

The paper's hardest shared-memory instances are road networks
(``roadNet-PA``, ``roadNet-CA``, ``dimacs9-NE``): sparse graphs with average
degree below 3 and diameters in the hundreds to thousands.  The perturbed-grid
generator below produces synthetic proxies with the same character: an
``rows x cols`` lattice whose edges are randomly deleted (keeping the graph
connected) plus a few random "highway" shortcuts, yielding average degree
~2.5-3 and a diameter on the order of ``rows + cols``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.graph.components import largest_connected_component
from repro.graph.csr import CSRGraph

__all__ = ["grid_graph", "road_network_graph"]


def grid_graph(rows: int, cols: int, *, periodic: bool = False) -> CSRGraph:
    """A ``rows x cols`` lattice graph (optionally with wrap-around edges)."""
    if rows < 0 or cols < 0:
        raise ValueError("rows and cols must be non-negative")
    n = rows * cols
    if n == 0:
        return CSRGraph.empty(0)
    ids = np.arange(n, dtype=np.int64).reshape(rows, cols)
    edges: List[np.ndarray] = []
    if cols > 1:
        edges.append(np.column_stack((ids[:, :-1].ravel(), ids[:, 1:].ravel())))
    if rows > 1:
        edges.append(np.column_stack((ids[:-1, :].ravel(), ids[1:, :].ravel())))
    if periodic and cols > 2:
        edges.append(np.column_stack((ids[:, -1].ravel(), ids[:, 0].ravel())))
    if periodic and rows > 2:
        edges.append(np.column_stack((ids[-1, :].ravel(), ids[0, :].ravel())))
    builder = GraphBuilder(num_vertices=n)
    if edges:
        builder.add_edges(np.concatenate(edges, axis=0))
    return builder.build()


def road_network_graph(
    rows: int,
    cols: int,
    *,
    deletion_probability: float = 0.25,
    shortcut_fraction: float = 0.002,
    seed: int | None = None,
) -> CSRGraph:
    """A synthetic road-network proxy: a randomly thinned lattice with shortcuts.

    Parameters
    ----------
    rows, cols:
        Lattice dimensions before thinning.
    deletion_probability:
        Probability of removing each lattice edge.
    shortcut_fraction:
        Number of random long-range "highway" edges added, as a fraction of
        the vertex count.
    seed:
        RNG seed.

    Returns
    -------
    CSRGraph
        The largest connected component of the perturbed lattice.
    """
    if not (0.0 <= deletion_probability < 1.0):
        raise ValueError("deletion_probability must lie in [0, 1)")
    if shortcut_fraction < 0.0:
        raise ValueError("shortcut_fraction must be non-negative")
    rng = np.random.default_rng(seed)
    base = grid_graph(rows, cols)
    edges = base.edge_array()
    if edges.shape[0] > 0 and deletion_probability > 0.0:
        keep = rng.random(edges.shape[0]) >= deletion_probability
        edges = edges[keep]
    n = rows * cols
    num_shortcuts = int(round(shortcut_fraction * n))
    if num_shortcuts > 0 and n > 1:
        s = rng.integers(0, n, size=num_shortcuts)
        t = rng.integers(0, n, size=num_shortcuts)
        edges = np.concatenate((edges, np.column_stack((s, t))), axis=0)
    builder = GraphBuilder(num_vertices=n)
    builder.add_edges(edges)
    return largest_connected_component(builder.build())
