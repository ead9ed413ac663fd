"""The one place a driver's path sampler is built.

The sequential session (:mod:`repro.session`), the rank engine
(:mod:`repro.parallel.engine`), the RK baseline, :mod:`repro.evolve` and the
cluster cost model all call :func:`make_sampler`; nothing else constructs a
:class:`~repro.kernels.BatchPathSampler`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.options import KadabraOptions
from repro.graph.csr import CSRGraph
from repro.kernels import BatchPathSampler

__all__ = ["make_sampler"]


def make_sampler(
    graph: CSRGraph,
    options: KadabraOptions,
    *,
    kernel: Optional[str] = None,
    pair_strategy: str = "interleaved",
) -> BatchPathSampler:
    """A new sampler (and scratch pool) over ``graph``, one per sampling thread.

    ``kernel`` forces a registered kernel; ``None`` leaves the choice to
    :func:`repro.kernels.abi.resolve_kernel`, except that
    ``options.use_bidirectional_bfs=False`` asks for ``"unidirectional"``.
    ``pair_strategy="interleaved"`` (default) draws each pair right before its
    search, the stream every adaptive driver shares; ``"vectorized"`` draws
    all pairs of a batch with bulk ``rng.integers`` calls (the non-adaptive
    RK baseline).

    Graph-shaped objects that cannot expose contiguous CSR arrays (a
    :class:`~repro.store.partition.PartitionedGraphView`) advertise a
    ``native_sampler`` hook, which wins: it keeps the core free of store
    imports while the unchanged drivers run on sharded adjacency.
    """
    native = getattr(graph, "native_sampler", None)
    if native is not None:
        return native(options, kernel=kernel)
    if kernel is None and not options.use_bidirectional_bfs:
        kernel = "unidirectional"
    return BatchPathSampler(graph, kernel=kernel, pair_strategy=pair_strategy)
