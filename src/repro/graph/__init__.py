"""Graph substrate: CSR graphs, builders, I/O, traversal and generators."""

from repro.graph.csr import CSRGraph
from repro.graph.builder import GraphBuilder
from repro.graph.components import (
    ConnectedComponents,
    connected_components,
    largest_connected_component,
    is_connected,
)
from repro.graph.traversal import (
    BFSResult,
    bfs_distances,
    bfs_with_sigma,
    eccentricity,
)
from repro.graph.io import (
    iter_edge_chunks,
    read_edge_list,
    write_edge_list,
    read_metis,
)

__all__ = [
    "CSRGraph",
    "GraphBuilder",
    "ConnectedComponents",
    "connected_components",
    "largest_connected_component",
    "is_connected",
    "BFSResult",
    "bfs_distances",
    "bfs_with_sigma",
    "eccentricity",
    "iter_edge_chunks",
    "read_edge_list",
    "write_edge_list",
    "read_metis",
]
