"""Synthetic graph generators: the paper's instance families as proxies.

R-MAT (Graph500 parameters) for the complex networks, perturbed lattices for
the road networks, Barabási–Albert for the social and hyperlink networks; the
examples, the benchmarks and the CLI build their graphs here.
"""

from repro.graph.generators.rmat import rmat_graph, GRAPH500_PARAMS
from repro.graph.generators.grid import grid_graph, road_network_graph
from repro.graph.generators.random_models import barabasi_albert

__all__ = [
    "rmat_graph",
    "GRAPH500_PARAMS",
    "grid_graph",
    "road_network_graph",
    "barabasi_albert",
]
