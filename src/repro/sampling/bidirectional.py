"""Balanced bidirectional BFS shortest-path sampler (kernel-backed shim).

KADABRA's key per-sample optimisation: instead of a full BFS from the source,
two level-synchronous BFSs grow from both endpoints; the side whose frontier
has the smaller total degree is expanded next.  On complex networks the two
search trees meet after exploring a small fraction of the graph, making a
single sample orders of magnitude cheaper than a full BFS.

Uniformity of the sampled path is preserved by counting shortest paths on both
sides (``sigma_s``, ``sigma_t``) and decomposing every shortest path at a
canonical *cut*.  A side looks at the rows of its frontier before it settles
the next level and stops the search at the first edge into the other side's
tree, so the two trees never share a vertex: when they meet, at depths
``level_s`` and ``level_t``, the distance is ``L == level_s + level_t + 1``
and every shortest path crosses exactly one edge ``(u, v)`` with
``dist_s[u] = level_s`` and ``dist_t[v] = level_t``; the number of shortest
paths through it equals ``sigma_s[u] * sigma_t[v]``.

Sampling the cut edge proportionally to these weights and then extending both
ends by sigma-weighted backward walks yields a uniformly random shortest path.

Since the batched-kernel refactor the search itself lives in
:func:`repro.kernels.bidirectional.bidirectional_sample`, which runs on a
reusable :class:`~repro.kernels.scratch.ScratchPool` instead of allocating
four O(n) arrays per sample.  This class is the scalar compatibility shim on
top of the batch kernel; it produces bit-identical samples to the original
implementation for a fixed RNG state (see ``sampling/_reference.py`` and the
equivalence tests).
"""

from __future__ import annotations

from repro.sampling.base import KernelPathSampler

__all__ = ["BidirectionalBFSSampler"]


class BidirectionalBFSSampler(KernelPathSampler):
    """Samples uniform shortest paths with a balanced bidirectional BFS."""

    _kernel_method = "bidirectional"
