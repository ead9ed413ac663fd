"""The one place a driver's path sampler and its sample bounds are built.

The sequential session (:mod:`repro.session`), the rank engine
(:mod:`repro.parallel.engine`), the RK baseline and :mod:`repro.evolve` all
call :func:`make_sampler`; nothing else constructs a
:class:`~repro.kernels.BatchPathSampler`, and its kernel is what
:func:`repro.kernels.abi.resolve_kernel` picks (a name asked for through
``Resources(kernel=...)``, ``--kernel`` or ``REPRO_KERNEL``, else routing).
The same drivers take their phase-1 vertex-diameter bound from
:func:`diameter_bound` and clamp their sample bound with
:func:`capped_samples`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.options import KadabraOptions
from repro.diameter import vertex_diameter_upper_bound
from repro.graph.csr import CSRGraph
from repro.graph.traversal import sweep_path
from repro.kernels import BatchPathSampler

__all__ = ["capped_samples", "diameter_bound", "make_sampler"]


def make_sampler(
    graph: CSRGraph,
    options: KadabraOptions,
    *,
    kernel: Optional[str] = None,
) -> BatchPathSampler:
    """A new sampler (and scratch pool) over ``graph``, one per sampling thread.

    ``kernel`` forces a registered kernel; ``None`` leaves the choice to
    :func:`repro.kernels.abi.resolve_kernel`, the only place a kernel is chosen.
    Every driver draws each pair right before its search, so how it batches
    never changes its samples.

    Graph-shaped objects that cannot expose contiguous CSR arrays (a
    :class:`~repro.store.partition.PartitionedGraphView`) advertise a
    ``native_sampler`` hook, which wins: it keeps the core free of store
    imports while the unchanged drivers run on sharded adjacency.
    """
    native = getattr(graph, "native_sampler", None)
    if native is not None:
        return native(options, kernel=kernel)
    return BatchPathSampler(graph, kernel=kernel)


def diameter_bound(graph: CSRGraph, options: KadabraOptions, span=None) -> int:
    """Phase 1: ``options.vertex_diameter_override``, else the sweep bound (at least 2).

    ``span``, when given, records which BFS sweep (compiled or numpy) ran.
    """
    if options.vertex_diameter_override is not None:
        return int(options.vertex_diameter_override)
    if span is not None:
        span.set("sweep", sweep_path(graph))
    return max(vertex_diameter_upper_bound(graph, seed=options.seed), 2)


def capped_samples(options: KadabraOptions, bound: int) -> int:
    """A sample bound (``omega``, or RK's fixed count) clamped by ``options.max_samples_override``."""
    if options.max_samples_override is None:
        return bound
    return min(bound, int(options.max_samples_override))
