"""The single high-level entry point: :func:`estimate_betweenness`.

One call runs any registered backend — sequential KADABRA, the shared-memory
epoch parallelization, the MPI-style distributed algorithms, the RK and
source-sampling baselines or exact Brandes — behind a uniform signature and a
uniform :class:`~repro.core.result.BetweennessResult` schema (backend name,
resource configuration and phase timings are always populated).

Every backend runs one way: the call resolves the backend once, calls its
registered runner (``spec.runner(graph, options, resources, progress)``) and
stamps the uniform schema.  It opens an
:class:`~repro.session.EstimationSession` only to keep the run —
``checkpoint_path`` on a backend registered with ``supports_refinement=True``
— and the session runs the same engine, so a kept run returns the same
result.  The ``checkpoint_path``/``resume_from`` keywords below expose the two
session capabilities that make sense for one call (producing a refinable
checkpoint, and serving a tighter request from one).  A third keyword family
(``update_from``/``graph_delta``/``update_threshold``) serves requests on a
*mutated* graph from a parent checkpoint via the incremental estimator of
:mod:`repro.evolve`.  Callers that want to refine, query or checkpoint
repeatedly keep a session themselves (:func:`repro.session.open_session`).
"""

from __future__ import annotations

import time
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.api import backends as _backends  # noqa: F401  (populates the registry)
from repro.api.registry import AUTO, get_backend, select_backend
from repro.api.resources import Resources
from repro.core.options import KadabraOptions
from repro.core.result import BetweennessResult
from repro.graph.csr import CSRGraph
from repro.obs import trace as obs_trace
from repro.util.progress import ProgressCallback, ProgressEvent, tag_backend

__all__ = ["estimate_betweenness"]

_UNSET = object()

_VALID_OPTION_FIELDS = frozenset(f.name for f in dataclass_fields(KadabraOptions))


def _build_options(
    options: Optional[KadabraOptions],
    eps,
    delta,
    seed,
    option_overrides,
) -> KadabraOptions:
    """Validate all accuracy/sampling options once, up front."""
    unknown = set(option_overrides) - _VALID_OPTION_FIELDS
    if unknown:
        raise ValueError(
            f"unknown option(s) {sorted(unknown)}; valid options: "
            f"{sorted(_VALID_OPTION_FIELDS)}"
        )
    changes = dict(option_overrides)
    if eps is not _UNSET:
        changes["eps"] = eps
    if delta is not _UNSET:
        changes["delta"] = delta
    if seed is not _UNSET:
        changes["seed"] = seed
    base = options if options is not None else KadabraOptions()
    return base.with_(**changes) if changes else base


def _finalize_result(
    result: BetweennessResult,
    *,
    backend: str,
    resources: Resources,
    eps: float,
    delta: float,
    elapsed: float,
    progress: Optional[ProgressCallback],
) -> BetweennessResult:
    """Stamp the uniform facade schema onto a backend result."""
    result.backend = backend
    result.resources = resources.as_dict()
    result.eps = eps
    result.delta = delta
    result.phase_seconds.setdefault("total", elapsed)
    # One-shot runs drew everything they used; session refinement fills the
    # split itself.  Normalising here keeps the accounting readable for every
    # backend, exact ones included (0 drawn, 0 reused).
    if result.samples_drawn == 0 and result.samples_reused == 0:
        result.samples_drawn = int(result.num_samples)
    if progress is not None:
        progress(
            ProgressEvent(
                phase="done",
                epoch=result.num_epochs,
                num_samples=result.num_samples,
                omega=result.omega,
            )
        )
    return result


def estimate_betweenness(
    graph: Union[CSRGraph, str, Path],
    *,
    algorithm: str = AUTO,
    eps=_UNSET,
    delta=_UNSET,
    seed=_UNSET,
    resources: Optional[Resources] = None,
    callbacks: Union[ProgressCallback, Iterable[ProgressCallback], None] = None,
    options: Optional[KadabraOptions] = None,
    checkpoint_path: Union[str, Path, None] = None,
    resume_from: Union[str, Path, None] = None,
    update_from: Union[str, Path, None] = None,
    graph_delta=None,
    update_threshold: float = 0.5,
    **option_overrides,
) -> BetweennessResult:
    """Estimate (or compute exactly) the betweenness of every vertex.

    Parameters
    ----------
    graph:
        The input :class:`~repro.graph.csr.CSRGraph` (undirected, unweighted;
        replicated on every rank, as in the paper) — or a path / registered
        dataset name, resolved through the :class:`~repro.store.GraphCatalog`:
        ``.rcsr`` files open zero-copy via :func:`numpy.memmap`, text edge
        lists are converted into the catalog cache on first touch, and
        multi-worker backends re-open the memory map per worker.  Path inputs
        are estimated on the stored graph *as is*; unlike the CLI, no
        largest-connected-component reduction is applied (pass
        ``largest_connected_component(load_graph(path))`` explicitly to match
        the paper's evaluation protocol on disconnected inputs).
    algorithm:
        A registered backend name (see :func:`repro.api.backend_names`) or
        ``"auto"`` to pick one deterministically from the graph size and the
        resource configuration: multiple processes select the distributed
        backend, multiple threads the shared-memory one, and a single worker
        runs exact Brandes on tiny graphs or sequential KADABRA otherwise.
    eps, delta:
        Absolute error bound and failure probability (defaults 0.01 / 0.1).
        Echoed into the result for every backend, exact ones included.
    seed:
        Master RNG seed; per-rank/thread streams are derived from it.
    resources:
        :class:`~repro.api.resources.Resources` describing how many
        processes/threads the backend may use; backends without the
        capability ignore the extra dimensions.
    callbacks:
        One progress callback or an iterable of them.  Each receives
        :class:`~repro.util.progress.ProgressEvent` objects (tagged with the
        resolved backend name) during the diameter, calibration and sampling
        phases, plus a final ``"done"`` event.  Callbacks may be invoked from
        a worker thread and should be fast and exception-free.
    options:
        A pre-built :class:`~repro.core.options.KadabraOptions`; explicit
        ``eps``/``delta``/``seed`` and keyword overrides are layered on top.
    checkpoint_path:
        If set and the resolved backend supports refinement (see
        ``supports_refinement`` in the registry), the run is kept in a
        session and snapshotted there — a later call can then serve a
        *tighter* request via ``resume_from`` instead of resampling from
        zero.  Other backends ignore it.
    resume_from:
        Path to a session checkpoint (from ``checkpoint_path`` or
        :meth:`repro.session.EstimationSession.checkpoint`).  The call
        restores the session and refines it to the tightest of the requested
        and checkpointed ``(eps, delta)`` — drawing only the additional
        samples, bit-identical to a fresh run at that target with the same
        seed.  ``algorithm`` is ignored (the checkpoint pins the engine) and
        an explicitly different ``seed`` is rejected.  An *unreadable*
        checkpoint (truncated, corrupted, stale graph) degrades to a cold
        run with a ``RuntimeWarning`` instead of failing — resuming is an
        optimization, never a correctness dependency.
    update_from:
        Path to a session checkpoint taken on a *parent* of ``graph`` — the
        same graph before an edge delta was applied.  The call restores the
        parent session, invalidates exactly the samples the delta touched,
        re-samples those pairs on ``graph`` and re-certifies the requested
        guarantee (see :func:`repro.evolve.update_session`), reusing every
        untouched sample.  Mutually exclusive with ``resume_from``.  Like
        resuming, updating is an optimization: an unusable checkpoint, a
        delta that invalidates more than ``update_threshold`` of the
        samples, or a missing or malformed lineage record or delta degrades
        to a cold run with a ``RuntimeWarning``; a *seed mismatch* still
        raises.
    graph_delta:
        The edge delta connecting the parent to ``graph``: a
        :class:`~repro.store.GraphDelta`, its ``as_dict()`` payload, or the
        path of a delta JSON file.  When omitted, the delta is looked up in
        the :class:`~repro.store.GraphCatalog` lineage sidecar by ``graph``'s
        content checksum (which requires ``graph`` to have been produced by
        :meth:`~repro.store.GraphCatalog.apply_delta`).
    update_threshold:
        Invalidation-fraction ceiling for the incremental path, in
        ``(0, 1]``.  Past it, surgery plus re-certification costs more than
        sampling from zero, so the call falls back cold.
    **option_overrides:
        Any further :class:`~repro.core.options.KadabraOptions` field (e.g.
        ``calibration_samples=200``, ``max_samples_override=5000``).

    Returns
    -------
    BetweennessResult
        With the uniform facade schema: ``backend``, ``resources``, a
        ``"total"`` phase timing and the ``samples_drawn``/``samples_reused``
        accounting are always populated and ``eps``/``delta`` echo the
        request.  The result serializes to the stable JSON schema of
        ``docs/serving.md`` via
        :meth:`~repro.core.result.BetweennessResult.to_json` — the same
        representation the query service (:mod:`repro.service`) caches,
        reuses under (eps, delta) dominance, and returns over HTTP.
    """
    if isinstance(graph, (str, Path)):
        from repro.store import load_graph

        graph = load_graph(graph)
    if not hasattr(graph, "num_vertices"):
        raise TypeError(f"graph must be a CSRGraph-like object, got {type(graph).__name__}")
    opts = _build_options(options, eps, delta, seed, option_overrides)
    resources = resources if resources is not None else Resources()
    if not isinstance(resources, Resources):
        raise TypeError("resources must be a repro.api.Resources instance")

    if update_from is not None and resume_from is not None:
        raise ValueError("update_from and resume_from are mutually exclusive")
    # One root span per facade call; the phase/driver/store spans nest
    # under it, so a traced run exports a single tree covering
    # diameter -> calibration -> sampling -> check.
    with obs_trace.span("estimate") as root:
        if update_from is not None or resume_from is not None:
            update = update_from is not None
            root.set("mode", "update" if update else "resume")
            result = _warm_estimate(
                graph,
                opts,
                resources,
                callbacks,
                checkpoint_path,
                update_from if update else resume_from,
                update=update,
                graph_delta=graph_delta,
                update_threshold=update_threshold,
            )
        else:
            result = _cold_estimate(
                graph, algorithm, opts, resources, callbacks, checkpoint_path
            )
            root.set("mode", "cold")
        root.set("backend", result.backend)
        root.set("num_samples", int(result.num_samples))
    if root:
        result.extra["trace"] = root.summary()
    return result


def _resolve_graph_delta(graph, graph_delta):
    """Normalise the ``graph_delta`` keyword to a :class:`GraphDelta`.

    Accepts a ``GraphDelta``, an ``as_dict()`` payload, a delta JSON path, or
    ``None`` — the last read from the catalog lineage by the child graph's
    content checksum.  Raises :class:`LookupError` or
    :class:`~repro.store.DeltaError` when no usable delta can be determined.
    """
    from repro.store import GraphCatalog, GraphDelta

    if isinstance(graph_delta, GraphDelta):
        return graph_delta
    if isinstance(graph_delta, dict):
        return GraphDelta.from_dict(graph_delta)
    if isinstance(graph_delta, (str, Path)):
        return GraphDelta.load(graph_delta)
    if graph_delta is not None:
        raise TypeError(
            "graph_delta must be a GraphDelta, a payload dict, or a path, "
            f"got {type(graph_delta).__name__}"
        )
    source = getattr(graph, "source_path", None)
    if source is None:
        raise LookupError(
            "graph_delta omitted and the graph has no source path to look "
            "lineage up by"
        )
    catalog = GraphCatalog()
    return catalog.parent_delta(catalog.checksum(source))[1]


def _warm_estimate(
    graph,
    opts: KadabraOptions,
    resources: Resources,
    callbacks,
    checkpoint_path,
    snapshot,
    *,
    update: bool,
    graph_delta,
    update_threshold: float,
) -> BetweennessResult:
    """Serve the request from a session checkpoint instead of from zero.

    Without ``update`` the checkpoint is of ``graph`` itself and is refined;
    with it the checkpoint is of a *parent* of ``graph`` and is carried
    across the edge delta (:func:`repro.evolve.update_session`).  Either way
    the target is the tightest of (request, checkpoint) per dimension, so
    the result dominates the request.

    Warm starting is an optimization: everything that makes it unavailable —
    an unreadable snapshot, a missing or malformed lineage record or delta, a
    delta that does not connect the two graphs, the threshold exceeded —
    degrades to a cold run with a ``RuntimeWarning``.  Caller contract
    violations (seed mismatch, bad ``update_threshold``) still raise.
    """
    import warnings

    from repro.evolve import EvolveError, update_session
    from repro.session import EstimationSession, SnapshotError
    from repro.store import DeltaError

    if update and not 0.0 < update_threshold <= 1.0:
        raise ValueError(f"update_threshold must be in (0, 1], got {update_threshold}")
    start = time.perf_counter()
    try:
        delta_obj = _resolve_graph_delta(graph, graph_delta) if update else None
        # A parent checkpoint re-opens the graph it records.
        session = EstimationSession.restore(
            snapshot, graph=None if update else graph, progress=callbacks
        )
        if opts.seed is not None and session.seed is not None and opts.seed != session.seed:
            raise ValueError(
                f"seed mismatch: requested seed {opts.seed} but the checkpoint was "
                f"produced with seed {session.seed}"
            )
        eff_eps = min(opts.eps, session.eps) if session.eps is not None else opts.eps
        eff_delta = (
            min(opts.delta, session.delta) if session.delta is not None else opts.delta
        )
        if update:
            session, report = update_session(
                session,
                graph,
                delta_obj,
                eps=eff_eps,
                delta=eff_delta,
                threshold=update_threshold,
            )
    except (SnapshotError, OSError, LookupError, DeltaError, EvolveError) as exc:
        warnings.warn(
            f"cannot {'update' if update else 'resume'} from {snapshot} ({exc}); "
            "running cold instead",
            RuntimeWarning,
            stacklevel=3,
        )
        return _cold_estimate(
            graph, "sequential", opts, resources, callbacks, checkpoint_path
        )
    result = report.result if update else session.refine(eff_eps, eff_delta)
    if checkpoint_path is not None:
        session.checkpoint(checkpoint_path)
    return _finalize_result(
        result,
        backend=session.algorithm,
        resources=resources,
        eps=eff_eps,
        delta=eff_delta,
        elapsed=time.perf_counter() - start,
        progress=session.progress,
    )


def _cold_estimate(
    graph,
    algorithm: str,
    opts: KadabraOptions,
    resources: Resources,
    callbacks,
    checkpoint_path,
) -> BetweennessResult:
    """Run the backend's registered runner, or a session when the run is kept."""
    spec = select_backend(graph.num_vertices, resources) if algorithm == AUTO else get_backend(algorithm)
    start = time.perf_counter()
    if checkpoint_path is not None and spec.supports_refinement:
        from repro.session import EstimationSession

        session = EstimationSession(graph, opts, progress=callbacks, kernel=resources.kernel)
        result = session.run()
        elapsed = time.perf_counter() - start
        session.checkpoint(checkpoint_path)
        progress = session.progress
    else:
        progress = tag_backend(callbacks, spec.name)
        result = spec.runner(graph, opts, resources, progress)
        elapsed = time.perf_counter() - start
    return _finalize_result(
        result,
        backend=spec.name,
        resources=resources,
        eps=opts.eps,
        delta=opts.delta,
        elapsed=elapsed,
        progress=progress,
    )
