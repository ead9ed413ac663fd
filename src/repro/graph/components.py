"""Connected components and largest-connected-component extraction.

The paper considers the largest connected component of disconnected inputs;
KADABRA's theory also assumes that sampled vertex pairs are connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.traversal import UNREACHED, bfs_distances, csr_views, level_sweeper

__all__ = ["ConnectedComponents", "connected_components", "largest_connected_component", "is_connected"]


@dataclass
class ConnectedComponents:
    """Labelling of vertices by connected component.

    Attributes
    ----------
    labels:
        int64 array; ``labels[v]`` is the component id of vertex ``v``.
        Component ids are dense, starting at 0, ordered by smallest member id.
    sizes:
        int64 array of component sizes indexed by component id.
    """

    labels: np.ndarray
    sizes: np.ndarray

    @property
    def num_components(self) -> int:
        return int(self.sizes.size)

    def largest(self) -> int:
        """Id of the largest component (ties broken by smallest id)."""
        if self.sizes.size == 0:
            raise ValueError("graph has no vertices")
        return int(np.argmax(self.sizes))

    def members(self, component: int) -> np.ndarray:
        """Vertices of the given component, in increasing id order."""
        return np.flatnonzero(self.labels == component)


def connected_components(graph: CSRGraph) -> ConnectedComponents:
    """Label all connected components in O(n + m).

    Every BFS stamps its component id into the one shared ``labels`` array,
    so a component costs its own vertices and edges, plus an O(n + m) scan for
    each level the compiled sweep runs bottom-up: only a frontier of n / 24
    vertices does, so at most 24 levels of the whole labelling.  Vertices
    without neighbours never start a BFS.
    """
    n = graph.num_vertices
    csr = indptr, indptr_hi, _ = csr_views(graph)
    sweep = level_sweeper(csr)
    labels = np.full(n, UNREACHED, dtype=np.int64)
    has_edges = indptr_hi > indptr[:-1]
    roots: List[int] = []
    sizes: List[int] = []
    for v in np.flatnonzero(has_edges).tolist():
        if labels[v] != UNREACHED:
            continue
        # The scan is in id order, so ``v`` is its component's smallest member.
        sizes.append(sum(level.size for level in sweep(labels, v, len(roots), 0)))
        roots.append(v)
    # Every isolated vertex is its own component; number all of them, with
    # the BFS components, by smallest member id.
    isolated = np.flatnonzero(~has_edges)
    all_roots = np.concatenate([np.asarray(roots, dtype=np.int64), isolated])
    rank = np.empty(all_roots.size, dtype=np.int64)
    rank[np.argsort(all_roots)] = np.arange(all_roots.size)
    labels[isolated] = np.arange(len(roots), all_roots.size)
    all_sizes = np.ones(all_roots.size, dtype=np.int64)
    all_sizes[rank[: len(roots)]] = np.asarray(sizes, dtype=np.int64)
    return ConnectedComponents(labels=rank[labels], sizes=all_sizes)


def is_connected(graph: CSRGraph) -> bool:
    """Whether the graph is connected (the empty graph counts as connected)."""
    n = graph.num_vertices
    return n == 0 or bfs_distances(graph, 0).num_reached == n


def largest_connected_component(graph: CSRGraph) -> CSRGraph:
    """Return the induced subgraph of the largest connected component.

    Vertex ids are relabelled to ``0..k-1`` preserving the original order.
    """
    if graph.num_vertices == 0:
        return graph
    comps = connected_components(graph)
    members = comps.members(comps.largest())
    if members.size == graph.num_vertices:
        return graph
    return graph.subgraph(members)
