"""Sampler factories shared by every KADABRA driver.

The sequential session (:mod:`repro.session`), the rank engine
(:mod:`repro.parallel.engine`) and the RK baseline all obtain their path
samplers here, so kernel routing and the ``native_sampler`` hook of sharded
graph views are decided in one place.
"""

from __future__ import annotations

from typing import Optional

from repro.core.options import KadabraOptions
from repro.graph.csr import CSRGraph
from repro.sampling import BidirectionalBFSSampler, PathSampler, UnidirectionalBFSSampler

__all__ = ["make_sampler", "make_batch_sampler"]


def make_sampler(
    graph: CSRGraph, options: KadabraOptions, *, kernel: Optional[str] = None
) -> PathSampler:
    """Instantiate the path sampler selected by the options.

    The returned sampler is a scalar shim over the pooled batch kernels; the
    drivers call its :meth:`~repro.sampling.base.PathSampler.sample_batch` to
    amortise per-sample overhead.  Each call creates an independent sampler
    (and scratch pool), so per-thread factories stay thread safe.  ``kernel``
    forces a specific registered kernel (see :mod:`repro.kernels.abi`);
    ``None`` uses automatic routing.

    Graph-shaped objects that cannot expose contiguous CSR arrays (e.g. a
    :class:`~repro.store.partition.PartitionedGraphView`) advertise a
    ``native_sampler`` hook, which wins over the kernel samplers; this keeps
    the core free of store imports while letting the unchanged drivers run on
    sharded adjacency.
    """
    native = getattr(graph, "native_sampler", None)
    if native is not None:
        return native(options, kernel=kernel)
    if options.use_bidirectional_bfs:
        return BidirectionalBFSSampler(graph, kernel=kernel)
    return UnidirectionalBFSSampler(graph, kernel=kernel)


def make_batch_sampler(
    graph: CSRGraph,
    options: KadabraOptions,
    *,
    pair_strategy: str = "interleaved",
    kernel: Optional[str] = None,
):
    """A :class:`~repro.kernels.BatchPathSampler` for the selected kernel.

    ``pair_strategy="interleaved"`` (default) keeps the RNG stream identical
    to the scalar samplers; ``"vectorized"`` draws all pairs of a batch with
    bulk ``rng.integers`` calls (used by the non-adaptive RK baseline).
    ``kernel`` overrides the ABI's automatic kernel routing.
    """
    from repro.kernels import BatchPathSampler

    method = "bidirectional" if options.use_bidirectional_bfs else "unidirectional"
    return BatchPathSampler(
        graph, method=method, pair_strategy=pair_strategy, kernel=kernel
    )
