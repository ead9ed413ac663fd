#!/usr/bin/env python3
"""Find key actors in a large social network with the parallel drivers.

The motivating application of the paper: on social networks only a handful of
vertices have betweenness above 0.01, so a small eps is needed to reliably
identify the important ones.  This example

1. builds a social-network proxy (R-MAT, Graph500 parameters, as used in the
   paper's synthetic evaluation),
2. runs the epoch-based distributed KADABRA (two ranks: this process and one forked from it),
3. compares eps = 0.05 and eps = 0.02 to show how a tighter error bound
   exposes more of the high-betweenness vertices, mirroring the paper's
   argument for eps = 0.001 at scale.

Run with::

    python examples/social_network_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro import Resources, estimate_betweenness
from repro.graph.generators import rmat_graph
from repro.graph.components import largest_connected_component


def run_with_eps(graph, eps: float, *, seed: int = 7):
    return estimate_betweenness(
        graph,
        algorithm="distributed",
        eps=eps,
        delta=0.1,
        seed=seed,
        resources=Resources(processes=2, threads=2),
    )


def main() -> None:
    graph = largest_connected_component(rmat_graph(12, edge_factor=16, seed=3))
    print(f"social-network proxy: {graph.num_vertices} vertices, {graph.num_edges} edges")

    coarse = run_with_eps(graph, eps=0.05)
    fine = run_with_eps(graph, eps=0.02)

    for label, result in (("eps = 0.05", coarse), ("eps = 0.02", fine)):
        detectable = int(np.sum(result.scores > 2 * result.eps))
        print(
            f"\n{label}: {result.num_samples} samples, {result.num_epochs} epochs, "
            f"{result.extra['communication_bytes'] / 1e6:.1f} MB aggregated"
        )
        print(f"  vertices whose score exceeds 2*eps (reliably detectable): {detectable}")
        print("  top-5 key actors:")
        for vertex, score in result.top_k(5):
            print(f"    vertex {vertex:6d}   b~ = {score:.5f}")

    # The tighter error bound never detects fewer vertices.
    coarse_detectable = int(np.sum(coarse.scores > 2 * coarse.eps))
    fine_detectable = int(np.sum(fine.scores > 2 * fine.eps))
    print(
        f"\ntightening eps from 0.05 to 0.02 raises the number of reliably "
        f"detectable key actors from {coarse_detectable} to {fine_detectable}"
    )


if __name__ == "__main__":
    main()
