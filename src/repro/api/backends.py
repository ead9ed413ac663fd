"""Default backend registrations for :func:`repro.api.estimate_betweenness`.

Each runner adapts one driver to the uniform registry signature

    runner(graph, options, resources, progress) -> BetweennessResult

where ``options`` is a validated :class:`~repro.core.options.KadabraOptions`,
``resources`` a :class:`~repro.api.resources.Resources` and ``progress`` an
optional :data:`~repro.util.progress.ProgressCallback`.  Importing this module
(which :mod:`repro.api` does) populates the registry with the paper's five
execution modes plus the older source-sampling baseline.

Every parallel mode runs :func:`repro.parallel.engine.run_rank`; asking for
``processes > 1`` gets that many OS processes, forked from the caller and
joined over loopback TCP, not threads taking turns under the GIL.
"""

from __future__ import annotations

from typing import Optional

from repro.api.registry import EXACT_AUTO_VERTEX_LIMIT, register_backend
from repro.baselines.brandes import brandes_betweenness
from repro.baselines.rk import _RKBetweenness
from repro.baselines.source_sampling import _SourceSamplingBetweenness, source_sample_size
from repro.core.options import KadabraOptions
from repro.core.result import BetweennessResult
from repro.graph.csr import CSRGraph
from repro.mpi.interface import Communicator, SelfComm
from repro.obs.trace import PhaseRecorder
from repro.parallel.engine import run_rank
from repro.util.progress import ProgressCallback, ProgressEvent

from repro.api.resources import Resources

__all__ = ["register_default_backends"]


def _run_sequential(
    graph: CSRGraph,
    options: KadabraOptions,
    resources: Resources,
    progress: Optional[ProgressCallback],
) -> BetweennessResult:
    from repro.session import EstimationSession

    return EstimationSession(graph, options, progress=progress, kernel=resources.kernel).run()


def _run_ranks(
    graph: CSRGraph,
    options: KadabraOptions,
    resources: Resources,
    progress: Optional[ProgressCallback],
    *,
    processes: int,
    threads: int,
    algorithm: str = "epoch",
) -> BetweennessResult:
    """The rank engine on ``processes`` ranks: ``SelfComm`` here, or real processes.

    With several ranks the caller is rank 0 and the others are forked from it
    (:func:`repro.dist.socketcomm.run_forked`): they inherit ``graph`` —
    in memory or mapped — copy-on-write, the paper's "one replicated
    read-only CSR per rank" at near-zero per-rank cost, and ``progress``
    fires only here.
    """

    def body(comm: Communicator, rank: int) -> Optional[BetweennessResult]:
        result, _stats = run_rank(
            comm,
            graph,
            options,
            threads=threads,
            algorithm=algorithm,
            processes_per_node=resources.processes_per_node if algorithm == "epoch" else None,
            kernel=resources.kernel,
            progress=progress,
        )
        return result

    if processes == 1:
        return body(SelfComm(), 0)
    from repro.dist.socketcomm import run_forked

    return run_forked(processes, body)


def _run_shared_memory(
    graph: CSRGraph,
    options: KadabraOptions,
    resources: Resources,
    progress: Optional[ProgressCallback],
) -> BetweennessResult:
    return _run_ranks(graph, options, resources, progress, processes=1, threads=resources.threads)


def _run_distributed(
    graph: CSRGraph,
    options: KadabraOptions,
    resources: Resources,
    progress: Optional[ProgressCallback],
) -> BetweennessResult:
    return _run_ranks(
        graph, options, resources, progress,
        processes=resources.processes, threads=resources.threads,
    )


def _run_mpi_only(
    graph: CSRGraph,
    options: KadabraOptions,
    resources: Resources,
    progress: Optional[ProgressCallback],
) -> BetweennessResult:
    return _run_ranks(
        graph, options, resources, progress,
        processes=resources.processes, threads=1, algorithm="mpi-only",
    )


def _run_rk(
    graph: CSRGraph,
    options: KadabraOptions,
    resources: Resources,
    progress: Optional[ProgressCallback],
) -> BetweennessResult:
    return _RKBetweenness(graph, options, progress=progress, kernel=resources.kernel).run()


def _run_exact(
    graph: CSRGraph,
    options: KadabraOptions,
    resources: Resources,
    progress: Optional[ProgressCallback],
) -> BetweennessResult:
    on_source = None
    if progress is not None:
        def on_source(done: int, total: int) -> None:
            progress(ProgressEvent(phase="sssp", num_samples=done, omega=total))

    phases = PhaseRecorder()
    with phases("sssp"):
        result = brandes_betweenness(graph, progress=on_source)
    result.phase_seconds = phases.seconds
    return result


def _run_source_sampling(
    graph: CSRGraph,
    options: KadabraOptions,
    resources: Resources,
    progress: Optional[ProgressCallback],
) -> BetweennessResult:
    num_sources = None
    if options.max_samples_override is not None and graph.num_vertices >= 2:
        num_sources = min(
            source_sample_size(options.eps, options.delta, graph.num_vertices),
            int(options.max_samples_override),
        )
    return _SourceSamplingBetweenness(
        graph,
        eps=options.eps,
        delta=options.delta,
        seed=options.seed,
        num_sources=num_sources,
        progress=progress,
    ).run()


def register_default_backends(*, replace: bool = False) -> None:
    """Register the built-in backends (idempotent when ``replace=True``)."""
    register_backend(
        "sequential",
        _run_sequential,
        description="Sequential KADABRA adaptive sampling (Section III)",
        supports_kernels=True,
        supports_refinement=True,
        supports_updates=True,
        cost_hint="adaptive-sampling",
        auto_rank=10,
        replace=replace,
    )
    register_backend(
        "shared-memory",
        _run_shared_memory,
        description="Epoch-based shared-memory KADABRA (state-of-the-art competitor)",
        supports_threads=True,
        supports_kernels=True,
        cost_hint="adaptive-sampling",
        auto_rank=20,
        replace=replace,
    )
    register_backend(
        "distributed",
        _run_distributed,
        description="Epoch-based MPI KADABRA, Algorithm 2 (optionally NUMA-aware)",
        supports_threads=True,
        supports_processes=True,
        supports_kernels=True,
        cost_hint="adaptive-sampling",
        auto_rank=30,
        replace=replace,
    )
    register_backend(
        "mpi-only",
        _run_mpi_only,
        description="MPI-only KADABRA without multithreading, Algorithm 1",
        supports_processes=True,
        supports_kernels=True,
        cost_hint="adaptive-sampling",
        auto_rank=40,
        replace=replace,
    )
    register_backend(
        "rk",
        _run_rk,
        description="Riondato-Kornaropoulos fixed-sample-size approximation",
        supports_kernels=True,
        cost_hint="fixed-sampling",
        auto_rank=50,
        replace=replace,
    )
    register_backend(
        "exact",
        _run_exact,
        description="Exact betweenness via Brandes' algorithm",
        exact=True,
        cost_hint="n-sssp",
        auto_rank=0,
        max_auto_vertices=EXACT_AUTO_VERTEX_LIMIT,
        replace=replace,
    )
    register_backend(
        "source-sampling",
        _run_source_sampling,
        description="Bader/Brandes-Pich style sampled-sources extrapolation",
        cost_hint="n-sssp",
        auto_rank=60,
        replace=replace,
    )


register_default_backends(replace=True)
