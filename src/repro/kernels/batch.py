"""The sampler every driver holds: draw K paths per call, return flat arrays.

:class:`BatchPathSampler` is KADABRA's one per-sample primitive over a fixed
graph.  ``sample_batch(k, rng)`` draws ``k`` (s, t) pairs, runs the routed
kernel on each, and returns a :class:`SampleBatch` whose path contributions
are two flat arrays (vertex ids + CSR-style offsets) ready for a single
``np.add.at`` into an epoch frame; ``sample_pairs`` does the same for given
pairs.  These two are the only ways to draw: a single sample is a batch of
one.  Every driver draws with ``sample_batch`` and gets its sampler from
:func:`repro.core.kadabra.make_sampler`.

Where the search is the compiled one (:attr:`BatchPathSampler.compiled`) a
batch is one call into :mod:`repro.kernels.compiled`, which draws the pairs
from ``rng`` and fills those arrays itself; everywhere else - the numpy and
Python kernels, and any ``rng`` that is not a numpy ``Generator`` - the pairs
are drawn and the kernel is called in a loop here.  Same samples, same
generator state, either way and for any ``k``.

Each pair is drawn immediately before its search with the two scalar draws of
:func:`~repro.sampling.base.sample_vertex_pair`.  The RNG stream is then the
same for any batch size - ``k`` calls of ``sample_batch(1)`` and one
``sample_batch(k)`` leave the generator in the same state - so how a driver
batches never changes a betweenness estimate for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.graph.csr import validate_csr
from repro.kernels import abi as _abi
from repro.kernels.bidirectional import bidirectional_sample
from repro.kernels.compiled import search_on, usable
from repro.kernels.scratch import ScratchPool, csr_views
from repro.obs import metrics as _metrics
from repro.sampling.base import PathSample, sample_vertex_pair

__all__ = ["SampleBatch", "BatchPathSampler"]

# Hot-path instrumentation (gated on repro.obs.metrics.ENABLED): every draw of
# every driver - planned batches, worker-thread and overlap batches, single
# samples - ends in one count_samples call per batch, so these counters are
# the per-process samples/sec source of truth for /metrics without touching
# any kernel inner loop.
_BATCHES_TOTAL = _metrics.REGISTRY.counter(
    "repro_kernel_batches_total", "Sampling batches drawn by the samplers"
)
_SAMPLES_TOTAL = _metrics.REGISTRY.counter(
    "repro_kernel_samples_total", "Samples drawn by the samplers"
)
# Per-kernel sample counters (created lazily, one per kernel name ever used
# in this process).
_KERNEL_COUNTERS: dict = {}


def _kernel_counter(name: str):
    counter = _KERNEL_COUNTERS.get(name)
    if counter is None:
        counter = _metrics.REGISTRY.counter(
            f"repro_kernel_{name}_samples_total",
            f"Samples drawn through the {name} kernel",
        )
        _KERNEL_COUNTERS[name] = counter
    return counter


def count_samples(k: int, kernel: Optional[str] = None) -> None:
    """Count one batch of ``k`` samples (and, given ``kernel``, its kernel's) while metrics are on."""
    if _metrics.ENABLED:
        _BATCHES_TOTAL.inc()
        _SAMPLES_TOTAL.inc(k)
        if kernel is not None:
            _kernel_counter(kernel).inc(k)


@dataclass
class SampleBatch:
    """Flat-array outcome of sampling ``k`` vertex pairs.

    Attributes
    ----------
    sources, targets:
        The sampled pairs (length ``k``).
    connected:
        Whether a path exists, per sample.
    lengths:
        Hop length of the sampled shortest path (0 when disconnected).
    edges_touched:
        Adjacency entries of the frontiers each sample's search expanded, each
        row counted once (cost-model accounting).
    contrib_vertices:
        All internal path vertices of the batch, concatenated — the vertices
        whose betweenness counters are incremented, ready for ``np.add.at``.
    contrib_indptr:
        CSR-style offsets (length ``k + 1``): sample ``i`` contributed
        ``contrib_vertices[contrib_indptr[i]:contrib_indptr[i + 1]]``.
    """

    sources: np.ndarray
    targets: np.ndarray
    connected: np.ndarray
    lengths: np.ndarray
    edges_touched: np.ndarray
    contrib_vertices: np.ndarray
    contrib_indptr: np.ndarray

    @property
    def num_samples(self) -> int:
        return int(self.sources.size)

    @property
    def sample_ids(self) -> np.ndarray:
        """Sample index of every entry of ``contrib_vertices``."""
        return np.repeat(
            np.arange(self.num_samples, dtype=np.int64), np.diff(self.contrib_indptr)
        )

    @property
    def total_edges_touched(self) -> int:
        return int(self.edges_touched.sum())

    def contributions_of(self, i: int) -> np.ndarray:
        """Internal vertices of sample ``i`` (a view, no copy)."""
        return self.contrib_vertices[self.contrib_indptr[i] : self.contrib_indptr[i + 1]]

    def iter_samples(self) -> Iterator[PathSample]:
        """Materialise per-sample :class:`PathSample` objects."""
        for i in range(self.num_samples):
            yield PathSample(
                source=int(self.sources[i]),
                target=int(self.targets[i]),
                connected=bool(self.connected[i]),
                length=int(self.lengths[i]),
                internal_vertices=self.contributions_of(i).copy(),
                edges_touched=int(self.edges_touched[i]),
            )


class _ContribRecorder:
    """Amortised growable int64 buffer for batch path contributions."""

    __slots__ = ("_buf", "_len")

    def __init__(self, capacity: int = 256) -> None:
        self._buf = np.empty(max(int(capacity), 16), dtype=np.int64)
        self._len = 0

    def extend(self, values: Sequence[int]) -> None:
        k = len(values)
        if k == 0:
            return
        needed = self._len + k
        if needed > self._buf.size:
            new = np.empty(max(needed, self._buf.size * 2), dtype=np.int64)
            new[: self._len] = self._buf[: self._len]
            self._buf = new
        self._buf[self._len : needed] = values
        self._len = needed

    @property
    def length(self) -> int:
        return self._len

    def finish(self) -> np.ndarray:
        return self._buf[: self._len].copy()


class BatchPathSampler:
    """Batch-oriented uniform shortest-path sampler over a fixed graph.

    Parameters
    ----------
    graph:
        The input :class:`~repro.graph.csr.CSRGraph`.  Memory-mapped CSR
        arrays are re-wrapped as plain ndarray views once, so the hot loops
        skip ``np.memmap``'s per-slice subclass overhead.
    pool:
        Optional :class:`ScratchPool` to reuse; one is created when omitted.
        A pool must not be shared between concurrently sampling workers.
    kernel:
        Explicit kernel name, overriding both automatic routing and the
        ``REPRO_KERNEL`` environment variable; ``None`` (default) leaves the
        choice to :func:`repro.kernels.abi.resolve_kernel`.  Forcing a
        batch-native kernel (``"wavefront"``) makes ``sample_batch`` draw all
        pairs up front — a different RNG stream, the same distribution.
    """

    def __init__(
        self,
        graph,
        *,
        pool: Optional[ScratchPool] = None,
        kernel: Optional[str] = None,
    ) -> None:
        if graph.num_vertices < 2:
            raise ValueError("BatchPathSampler requires a graph with at least 2 vertices")
        if pool is not None and pool.num_vertices != graph.num_vertices:
            raise ValueError("scratch pool size does not match the graph")
        self._graph = graph
        # Plain ndarray views: identical memory, none of np.memmap's
        # __array_finalize__ cost on every slice in the kernel hot loop.
        self._indptr, _, self._indices = csr_views(graph)
        # Whatever made the graph (a mapped .rcsr is opened unvalidated), no
        # kernel indexes with an entry that was not checked: ValueError here,
        # not a wild read in the search.
        validate_csr(self._indptr, self._indices)
        self._pool = pool if pool is not None else ScratchPool(graph.num_vertices)
        spec = self._spec = _abi.resolve_kernel(self._indptr, self._indices, requested=kernel)
        self._delegate = None
        self._kernel = None
        self._kernel_indptr = self._indptr
        self._kernel_indices = self._indices
        if spec.batch_native:
            self._delegate = spec.make_batch(graph)
        else:
            # Kernel operands come from the spec factory: ndarray CSR for the
            # numpy kernels, memoised tolist adjacency for the small-graph
            # kernel (where per-sample cost is numpy dispatch overhead
            # rather than traversal).
            self._kernel, self._kernel_indptr, self._kernel_indices = spec.make_per_pair(
                self._indptr, self._indices
            )
        # Decided once: the bidirectional search runs in the compiled helper
        # wherever it was built, passed its self-check and can read these arrays.
        self._in_c = self._kernel is bidirectional_sample and usable(self._indptr, self._indices)

    # ------------------------------------------------------------------ #
    @property
    def kernel_name(self) -> str:
        """Name of the kernel routing picked (:func:`repro.kernels.abi.resolve_kernel`)."""
        return self._spec.name

    @property
    def compiled(self) -> bool:
        """Whether the search runs in the compiled helper (:mod:`repro.kernels.compiled`)."""
        return self._in_c

    @property
    def pool(self) -> ScratchPool:
        return self._pool

    # ------------------------------------------------------------------ #
    def sample_batch(self, batch_size: int, rng: np.random.Generator) -> SampleBatch:
        """Draw ``batch_size`` uniform pairs and one shortest path per pair."""
        k = int(batch_size)
        if k <= 0:
            raise ValueError("batch_size must be positive")
        if self._delegate is not None:
            # Batch-native kernels draw all pairs up front by construction,
            # so their stream depends on the batch size.
            batch = self._delegate.sample_batch(k, rng)
            self._count_samples(k)
            return batch
        if self._one_call(rng):
            return SampleBatch(*self._compiled(rng, k))
        n = self._graph.num_vertices
        sources = np.empty(k, dtype=np.int64)
        targets = np.empty(k, dtype=np.int64)
        out = _BatchAccumulator(k)
        kernel = self._kernel
        indptr, indices, pool = self._kernel_indptr, self._kernel_indices, self._pool
        for i in range(k):
            s, t = sample_vertex_pair(n, rng)
            sources[i] = s
            targets[i] = t
            out.record(i, kernel(indptr, indices, pool, s, t, rng))
        self._count_samples(k)
        return out.finish(sources, targets)

    def sample_pairs(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        rng: np.random.Generator,
    ) -> SampleBatch:
        """Sample one shortest path per given (source, target) pair."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape or sources.ndim != 1:
            raise ValueError("sources and targets must be 1-d arrays of equal length")
        n = self._graph.num_vertices
        if sources.size and (
            int(sources.min()) < 0
            or int(sources.max()) >= n
            or int(targets.min()) < 0
            or int(targets.max()) >= n
        ):
            raise ValueError("source/target out of range")
        if np.any(sources == targets):
            raise ValueError("source and target must be distinct")
        k = int(sources.size)
        if self._delegate is not None:
            batch = self._delegate.sample_pairs(sources, targets, rng)
            self._count_samples(k)
            return batch
        if self._one_call(rng):
            return SampleBatch(*self._compiled(rng, k, sources, targets))
        out = _BatchAccumulator(k)
        kernel = self._kernel
        indptr, indices, pool = self._kernel_indptr, self._kernel_indices, self._pool
        for i in range(k):
            result = kernel(indptr, indices, pool, int(sources[i]), int(targets[i]), rng)
            out.record(i, result)
        self._count_samples(k)
        return out.finish(sources, targets)

    # ------------------------------------------------------------------ #
    def _count_samples(self, k: int) -> None:
        count_samples(k, self._spec.name)

    def _one_call(self, rng) -> bool:
        """Whether a batch is one compiled call: that search, and a generator C can draw from."""
        return self._in_c and isinstance(rng, np.random.Generator)

    def _compiled(self, rng: np.random.Generator, k: int, sources=None, targets=None):
        """The fields of a :class:`SampleBatch` of ``k``: drawn pairs, or the given ones."""
        search = search_on(self._pool, self._indptr, self._indices)
        fields = search.sample_batch(self._pool, rng, k, sources, targets)
        self._count_samples(k)
        return fields


class _BatchAccumulator:
    """Collects per-sample kernel results into the flat batch arrays."""

    __slots__ = ("connected", "lengths", "edges", "indptr", "contribs")

    def __init__(self, k: int) -> None:
        self.connected = np.zeros(k, dtype=bool)
        self.lengths = np.zeros(k, dtype=np.int64)
        self.edges = np.zeros(k, dtype=np.int64)
        self.indptr = np.zeros(k + 1, dtype=np.int64)
        self.contribs = _ContribRecorder()

    def record(self, i: int, result) -> None:
        connected, length, internal, edges_touched = result
        self.connected[i] = connected
        self.lengths[i] = length
        self.edges[i] = edges_touched
        self.contribs.extend(internal)
        self.indptr[i + 1] = self.contribs.length

    def finish(self, sources: np.ndarray, targets: np.ndarray) -> SampleBatch:
        return SampleBatch(
            sources=sources,
            targets=targets,
            connected=self.connected,
            lengths=self.lengths,
            edges_touched=self.edges,
            contrib_vertices=self.contribs.finish(),
            contrib_indptr=self.indptr,
        )
