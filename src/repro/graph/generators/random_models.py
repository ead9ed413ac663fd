"""Barabási–Albert preferential attachment: power-law proxies for the social
and hyperlink networks of Table I."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["barabasi_albert"]


def barabasi_albert(n: int, attachments: int, *, seed: int | None = None) -> CSRGraph:
    """Barabási–Albert preferential-attachment graph.

    Each new vertex attaches to ``attachments`` existing vertices chosen with
    probability proportional to their current degree (using the standard
    repeated-endpoint trick).
    """
    if attachments < 1:
        raise ValueError("attachments must be >= 1")
    if n < attachments + 1:
        raise ValueError("n must be at least attachments + 1")
    rng = np.random.default_rng(seed)
    # Start from a star over the first (attachments + 1) vertices so that every
    # vertex has positive degree.
    repeated: List[int] = []
    edges: List[Tuple[int, int]] = []
    for v in range(1, attachments + 1):
        edges.append((0, v))
        repeated.extend((0, v))
    for new_vertex in range(attachments + 1, n):
        targets: set[int] = set()
        while len(targets) < attachments:
            pick = repeated[int(rng.integers(0, len(repeated)))]
            targets.add(pick)
        for t in targets:
            edges.append((new_vertex, t))
            repeated.extend((new_vertex, t))
    return CSRGraph.from_edges(edges, num_vertices=n)
