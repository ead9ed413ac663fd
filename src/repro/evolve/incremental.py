"""Incremental betweenness on evolving graphs: invalidate, re-sample, re-certify.

A mutated graph does not void an adaptive-sampling run wholesale.  Each
accumulated sample is a uniformly drawn shortest path for a uniformly drawn
vertex pair; an edge delta changes the shortest-path structure of only *some*
pairs, and a sample whose pair's shortest-path set is untouched remains a
valid draw from the child graph's sampling distribution.  This module turns
that observation into an update operator over checkpointed sessions:

1. **Invalidate** (:func:`invalidated_samples`) — decide, exactly, which
   logged samples a :class:`~repro.store.GraphDelta` touched.  For a deleted
   edge ``(u, v)`` and a sample with pair ``(s, t)`` and logged distance
   ``d``, the edge lay on *some* shortest ``s``-``t`` path of the parent iff
   ``min(d_p(s,u) + d_p(v,t), d_p(s,v) + d_p(u,t)) + 1 == d`` with parent
   distances ``d_p`` — if it did, the shortest-path set (and hence the
   uniform path distribution the sample was drawn from) changed.  For an
   inserted edge the same quantity on *child* distances with ``<= d`` detects
   both strictly shorter paths and new equal-length ones.  These two tests
   are complete: any new child shortest path must traverse an inserted edge,
   and any lost parent shortest path traversed a deleted one, so a sample
   flagged by neither has an identical shortest-path set on both graphs.
   Cost: one BFS per distinct delta endpoint per side, not per sample.

2. **Re-sample** — surgery on the session state.  Each invalidated sample
   keeps its ``(s, t)`` *pair* (the pair marginal is uniform on both graphs,
   so conditioning on "pair was touched" would bias the path distribution if
   we redrew pairs) and redraws only the path, on the child graph, from the
   session's live RNG.  Stale interior contributions are subtracted from the
   aggregate frame — and from the calibration prefix where they fall inside
   it — and the fresh ones added, keeping frame and log consistent.

3. **Re-certify** — the child graph has its own vertex-diameter bound and
   hence its own ``omega``; the session hands its state to the rank engine's
   one worker (:func:`~repro.parallel.engine.run_rank`, as ``refine`` does),
   which bounds the child's diameter, extends the calibration frame if the
   child schedule asks for more, recalibrates ``delta_L``/``delta_U``, and
   runs the standard check/draw loop to a fresh stopping certificate.  The
   certificate is the same KADABRA guarantee a cold run on the child would
   produce; what is saved is the samples *not* redrawn.

Unlike :meth:`~repro.session.EstimationSession.refine`, the update is **not**
bit-identical to a cold child run — the retained samples came from the parent
stream — but every retained sample is distributionally a child sample, which
is all the guarantee needs.  When a delta touches more than
``threshold`` of the accumulated samples the machinery refuses
(:class:`UpdateThresholdExceeded`): past that point a cold run is cheaper
than surgery plus re-certification, and the caller (facade, service) is
expected to fall back.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.result import BetweennessResult
from repro.graph.csr import CSRGraph
from repro.graph.traversal import UNREACHED, bfs_distances
from repro.obs import trace as obs_trace
from repro.session.sample_log import SampleLog
from repro.session.session import EstimationSession
from repro.store.delta import GraphDelta

__all__ = [
    "EvolveError",
    "UpdateReport",
    "UpdateThresholdExceeded",
    "invalidated_samples",
    "update_session",
]

PathLike = Union[str, Path]

#: Distance sentinel for disconnected pairs.  Far above any finite hop count
#: (paths have < 2**33 hops on any graph this code can hold) yet small enough
#: that sums of two sentinels stay well inside int64 — so the invalidation
#: tests below run on plain integer comparisons with no special-casing.
INF = np.int64(1) << 40


class EvolveError(RuntimeError):
    """An incremental update cannot proceed (callers may fall back cold)."""


class UpdateThresholdExceeded(EvolveError):
    """The delta invalidated too many samples for surgery to pay off."""

    def __init__(self, fraction: float, threshold: float) -> None:
        super().__init__(
            f"delta invalidates {fraction:.1%} of the accumulated samples, "
            f"above the update threshold of {threshold:.1%}; run cold instead"
        )
        self.fraction = float(fraction)
        self.threshold = float(threshold)


@dataclass(frozen=True)
class UpdateReport:
    """Accounting for one :func:`update_session` call.

    Attributes
    ----------
    result:
        The re-certified estimate on the child graph.  Its
        ``samples_reused``/``samples_drawn``/``samples_invalidated`` fields
        carry the reuse split.
    parent_samples:
        Accumulated samples (``tau``) the parent session arrived with.
    samples_invalidated:
        How many of those the delta touched (re-sampled in place).
    invalidated_fraction:
        ``samples_invalidated / parent_samples`` — what was checked against
        the threshold.
    samples_reused:
        Parent samples retained verbatim.
    num_bfs:
        Distinct BFS traversals the invalidation test ran (two per distinct
        delta endpoint, worst case).
    threshold:
        The invalidation-fraction ceiling this update ran under.
    vertex_diameter:
        The child graph's vertex-diameter bound used for re-certification.
    """

    result: BetweennessResult
    parent_samples: int
    samples_invalidated: int
    invalidated_fraction: float
    samples_reused: int
    num_bfs: int
    threshold: float
    vertex_diameter: int


def _distance_oracle(graph: CSRGraph) -> Tuple[Callable[[int], np.ndarray], Dict[int, np.ndarray]]:
    """A memoised single-source distance function with the INF sentinel."""
    cache: Dict[int, np.ndarray] = {}

    def distances(v: int) -> np.ndarray:
        got = cache.get(v)
        if got is None:
            got = bfs_distances(graph, v).distances.astype(np.int64, copy=True)
            got[got == UNREACHED] = INF
            cache[v] = got
        return got

    return distances, cache


def invalidated_samples(
    parent: CSRGraph,
    child: CSRGraph,
    graph_delta: GraphDelta,
    log: SampleLog,
) -> Tuple[np.ndarray, int]:
    """Which logged samples did the delta invalidate?

    Returns ``(mask, num_bfs)``: a boolean mask over ``log``'s samples (True
    means the sample's pair has a different shortest-path set on ``child``
    than it had on ``parent`` and must be re-sampled) and the number of BFS
    traversals spent deciding.  See the module docstring for why the two
    endpoint-distance tests are exact and complete.
    """
    sources = log.sources
    targets = log.targets
    dist = log.lengths.copy()
    dist[dist < 0] = INF  # logged -1 == disconnected at sampling time
    invalid = np.zeros(log.num_samples, dtype=bool)

    parent_dist, parent_cache = _distance_oracle(parent)
    child_dist, child_cache = _distance_oracle(child)

    for u, v in graph_delta.deletions:
        du, dv = parent_dist(int(u)), parent_dist(int(v))
        via = np.minimum(du[sources] + dv[targets], dv[sources] + du[targets]) + 1
        # The deleted edge lay on some shortest s-t path: the path set shrank.
        invalid |= via == dist
    for u, v in graph_delta.insertions:
        du, dv = child_dist(int(u)), child_dist(int(v))
        via = np.minimum(du[sources] + dv[targets], dv[sources] + du[targets]) + 1
        # The inserted edge carries a shorter (or new equal-length) s-t path.
        invalid |= via <= dist
    return invalid, len(parent_cache) + len(child_cache)


def _obtain_session(
    source: Union[EstimationSession, PathLike],
    parent_graph: Optional[CSRGraph],
    progress,
) -> EstimationSession:
    if isinstance(source, EstimationSession):
        return source
    return EstimationSession.restore(source, graph=parent_graph, progress=progress)


def update_session(
    source: Union[EstimationSession, PathLike],
    graph: CSRGraph,
    graph_delta: GraphDelta,
    *,
    eps: Optional[float] = None,
    delta: Optional[float] = None,
    threshold: float = 0.5,
    parent_graph: Optional[CSRGraph] = None,
    progress=None,
) -> Tuple[EstimationSession, UpdateReport]:
    """Carry a parent session over an edge delta onto the mutated graph.

    Parameters
    ----------
    source:
        A live parent :class:`~repro.session.EstimationSession`, or the path
        of one of its checkpoints (restored against ``parent_graph``, or the
        snapshot's recorded source path).
    graph:
        The *child* graph — the parent with ``graph_delta`` applied (use
        :func:`repro.store.apply_delta` or
        :meth:`repro.store.GraphCatalog.apply_delta`).
    graph_delta:
        The mutation connecting parent to child.  Validated against the
        parent: every deletion must exist there, no insertion may.
    eps, delta:
        Re-certification target; default to the parent's achieved guarantee.
    threshold:
        Invalidation-fraction ceiling in ``(0, 1]``; exceeded it raises
        :class:`UpdateThresholdExceeded` *before* any state is modified.

    Returns ``(session, report)`` — the session now lives on ``graph`` with a
    fresh ``(eps, delta)`` certificate, ready for further ``refine``/
    ``checkpoint``/``peek`` calls (and further updates).  ``report.result``
    is the re-certified estimate.

    Raises :class:`EvolveError` when the source cannot support an update
    (a parallel rank's checkpoint, pre-log snapshot, vertex-count mismatch) and
    :class:`~repro.store.DeltaError` when the delta does not connect the two
    graphs; neither modifies the session.
    """
    with obs_trace.span("evolve.update") as sp:
        session, report = _update_session_impl(
            source,
            graph,
            graph_delta,
            eps=eps,
            delta=delta,
            threshold=threshold,
            parent_graph=parent_graph,
            progress=progress,
        )
        if sp:
            sp.set("invalidated_fraction", report.invalidated_fraction)
            sp.set("samples_reused", report.samples_reused)
    return session, report


def _update_session_impl(
    source: Union[EstimationSession, PathLike],
    graph: CSRGraph,
    graph_delta: GraphDelta,
    *,
    eps: Optional[float] = None,
    delta: Optional[float] = None,
    threshold: float = 0.5,
    parent_graph: Optional[CSRGraph] = None,
    progress=None,
) -> Tuple[EstimationSession, UpdateReport]:
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    session = _obtain_session(source, parent_graph, progress)
    if not session.supports_refinement:
        raise EvolveError(
            f"backend {session.algorithm!r} sessions are not update-refinable"
        )
    if not session.has_run:
        raise EvolveError("run() must complete before the session can be updated")
    log = session.sample_log
    if log is None:
        raise EvolveError(
            "session carries no per-sample log (snapshot predates the log "
            "format); incremental updates need one — run cold instead"
        )
    parent = session.graph
    if graph.num_vertices != parent.num_vertices:
        raise EvolveError(
            f"child graph has {graph.num_vertices} vertices, parent has "
            f"{parent.num_vertices}: deltas cannot change the vertex set"
        )
    graph_delta.validate_against(parent)
    expected_edges = (
        parent.num_edges - graph_delta.num_deletions + graph_delta.num_insertions
    )
    if graph.num_edges != expected_edges:
        raise EvolveError(
            f"child graph has {graph.num_edges} edges but parent plus delta "
            f"gives {expected_edges}: the delta does not connect these graphs"
        )

    eps = float(session.eps if eps is None else eps)
    delta = float(session.delta if delta is None else delta)
    phases = obs_trace.PhaseRecorder()

    with phases("invalidation"):
        mask, num_bfs = invalidated_samples(parent, graph, graph_delta, log)
    tau_parent = log.num_samples
    invalid_count = int(np.count_nonzero(mask))
    fraction = invalid_count / tau_parent if tau_parent else 0.0
    session._emit(phase="invalidation", num_samples=tau_parent - invalid_count)
    if fraction > threshold:
        raise UpdateThresholdExceeded(fraction, threshold)

    # -------------------------------------------------------------- #
    # Surgery: subtract stale contributions, redraw the same pairs on
    # the child, add the fresh ones.  The calibration frame is the log
    # prefix of the first C samples, so the invalidated indices below C
    # get the same subtract/add treatment there.
    # -------------------------------------------------------------- #
    with phases("resample"):
        frame = session._frame
        calibration = session._calibration_frame
        idx = np.flatnonzero(mask)
        cal_count = calibration.num_samples if calibration is not None else 0
        k_cal = int(np.searchsorted(idx, cal_count))

        session._graph = graph
        session._sampler = None  # rebuilt over the child, with the session's kernel
        session._ensure_engine()

        if idx.size:
            stale = log.contributions_concat(idx)
            if stale.size:
                np.add.at(frame.counts, stale, -1.0)
            if k_cal and calibration is not None:
                stale_cal = log.contributions_concat(idx[:k_cal])
                if stale_cal.size:
                    np.add.at(calibration.counts, stale_cal, -1.0)

            batch = session._sampler.sample_pairs(
                log.sources[idx], log.targets[idx], session._rng
            )
            fresh = batch.contrib_vertices
            if fresh.size:
                np.add.at(frame.counts, fresh, 1.0)
            frame.edges_touched += int(batch.edges_touched.sum())
            if k_cal and calibration is not None:
                fresh_cal = fresh[: int(batch.contrib_indptr[k_cal])]
                if fresh_cal.size:
                    np.add.at(calibration.counts, fresh_cal, 1.0)
            log.replace(idx, batch)
    session._emit(phase="resample", num_samples=tau_parent)

    # -------------------------------------------------------------- #
    # Re-certify on the child: the engine bounds its diameter (the state
    # holds none for it), then calibrates and checks as refine does.
    # -------------------------------------------------------------- #
    session._vd = None
    samples_reused = tau_parent - invalid_count
    result = session._advance(session._target_options(eps, delta), samples_reused=samples_reused)
    result.phase_seconds = {**phases.seconds, **result.phase_seconds}
    result.samples_invalidated = invalid_count
    result.extra["invalidated_fraction"] = float(fraction)
    result.extra["update_bfs"] = float(num_bfs)
    report = UpdateReport(
        result=result,
        parent_samples=tau_parent,
        samples_invalidated=invalid_count,
        invalidated_fraction=float(fraction),
        samples_reused=samples_reused,
        num_bfs=num_bfs,
        threshold=float(threshold),
        vertex_diameter=session._vd,
    )
    return session, report
