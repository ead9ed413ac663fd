"""What one sample is: a vertex pair and one shortest path between them.

KADABRA samples a pair ``(s, t)`` of distinct vertices uniformly at random and
then a *uniformly random shortest s-t path*; the betweenness estimate of a
vertex is the fraction of sampled paths that contain it as an internal vertex.
The sampler itself is :class:`repro.kernels.BatchPathSampler`; this module
holds the pair draw it starts from and the per-sample record that
:meth:`~repro.kernels.SampleBatch.iter_samples` yields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PathSample", "sample_vertex_pair"]


@dataclass
class PathSample:
    """Outcome of sampling one vertex pair.

    Attributes
    ----------
    source, target:
        The sampled pair.
    connected:
        Whether a path between the pair exists.
    length:
        Hop length of the shortest path (0 when not connected).
    internal_vertices:
        The vertices strictly between source and target on the sampled path
        (empty when the pair is adjacent or disconnected).  These are the
        vertices whose betweenness counter is incremented.
    edges_touched:
        Adjacency entries of the frontiers the search expanded, each row
        counted once: the per-sample work the kernel benchmarks report.
    """

    source: int
    target: int
    connected: bool
    length: int = 0
    internal_vertices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    edges_touched: int = 0

    @property
    def path_vertices(self) -> np.ndarray:
        """Full path including the endpoints (only when connected)."""
        if not self.connected:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            (
                np.asarray([self.source], dtype=np.int64),
                self.internal_vertices.astype(np.int64),
                np.asarray([self.target], dtype=np.int64),
            )
        )


def sample_vertex_pair(num_vertices: int, rng: np.random.Generator) -> tuple[int, int]:
    """Sample a uniformly random ordered pair of *distinct* vertices."""
    if num_vertices < 2:
        raise ValueError("need at least two vertices to sample a pair")
    s = int(rng.integers(0, num_vertices))
    t = int(rng.integers(0, num_vertices - 1))
    if t >= s:
        t += 1
    return s, t
