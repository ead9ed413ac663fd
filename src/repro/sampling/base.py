"""Common interfaces for shortest-path samplers.

KADABRA samples a pair ``(s, t)`` of distinct vertices uniformly at random and
then a *uniformly random shortest s-t path*; the betweenness estimate of a
vertex is the fraction of sampled paths that contain it as an internal vertex.
Both the unidirectional and the bidirectional sampler implement the
:class:`PathSampler` protocol so the KADABRA drivers are agnostic to which one
is used.

Since the batched-kernel refactor the protocol has two levels:

* :meth:`PathSampler.sample_path` / :meth:`PathSampler.sample` — the scalar
  interface, one :class:`PathSample` per call;
* :meth:`PathSampler.sample_batch` — draw ``k`` pairs and paths in one call,
  returning a flat-array :class:`~repro.kernels.batch.SampleBatch`.  The
  default implementation loops over :meth:`sample`, so any third-party
  sampler automatically supports the batch-oriented drivers; the built-in
  samplers override it with the pooled zero-allocation kernels.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["PathSample", "PathSampler", "KernelPathSampler", "sample_vertex_pair"]


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
        counted once; the cluster model calibrates the per-sample cost on it.
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


class PathSampler(abc.ABC):
    """Uniform shortest-path sampler over a fixed graph."""

    def __init__(self, graph: CSRGraph) -> None:
        if graph.num_vertices < 2:
            raise ValueError("PathSampler requires a graph with at least 2 vertices")
        self._graph = graph

    @property
    def graph(self) -> CSRGraph:
        return self._graph

    @abc.abstractmethod
    def sample_path(self, source: int, target: int, rng: np.random.Generator) -> PathSample:
        """Sample one uniformly random shortest path between the given pair."""

    def sample(self, rng: np.random.Generator) -> PathSample:
        """Sample a uniform pair of distinct vertices and a shortest path."""
        s, t = sample_vertex_pair(self._graph.num_vertices, rng)
        return self.sample_path(s, t, rng)

    def sample_batch(self, batch_size: int, rng: np.random.Generator):
        """Draw ``batch_size`` pairs and paths; returns a ``SampleBatch``.

        Generic fallback: loops over :meth:`sample` and packs the results.
        RNG consumption is identical to ``batch_size`` scalar calls, so
        batched and scalar driving of the same sampler yield the same stream.
        """
        from repro.kernels.batch import _BatchAccumulator

        k = int(batch_size)
        if k <= 0:
            raise ValueError("batch_size must be positive")
        sources = np.empty(k, dtype=np.int64)
        targets = np.empty(k, dtype=np.int64)
        out = _BatchAccumulator(k)
        for i in range(k):
            s = self.sample(rng)
            sources[i] = s.source
            targets[i] = s.target
            out.record(i, (s.connected, s.length, s.internal_vertices, s.edges_touched))
        return out.finish(sources, targets)


class KernelPathSampler(PathSampler):
    """Scalar :class:`PathSampler` shim over a pooled batch kernel.

    Subclasses set ``_kernel_method``; the heavy lifting happens in
    :class:`repro.kernels.BatchPathSampler`, which owns the per-worker
    :class:`~repro.kernels.ScratchPool`.
    """

    _kernel_method = "bidirectional"

    def __init__(self, graph: CSRGraph, *, kernel: str | None = None) -> None:
        super().__init__(graph)
        from repro.kernels import BatchPathSampler

        self._batch_sampler = BatchPathSampler(
            graph, method=self._kernel_method, kernel=kernel
        )

    def batch_sampler(self):
        """The pooled :class:`~repro.kernels.BatchPathSampler` backing this shim."""
        return self._batch_sampler

    @property
    def kernel_spec(self):
        """The resolved :class:`~repro.kernels.abi.KernelSpec` (routing)."""
        return self._batch_sampler.kernel_spec

    def sample_path(self, source: int, target: int, rng: np.random.Generator) -> PathSample:
        return self._batch_sampler.sample_path(source, target, rng)

    def sample_batch(self, batch_size: int, rng: np.random.Generator):
        return self._batch_sampler.sample_batch(batch_size, rng)
