"""Top-k betweenness identification on top of the KADABRA estimates.

The paper motivates the small-eps regime by the need to *reliably identify the
vertices with the highest betweenness*: on the twitter graph only 38 of 41
million vertices have a score above 0.01, so an absolute error of 0.01 can only
separate that handful.  This module turns a finished
:class:`~repro.core.result.BetweennessResult` into the set of vertices that are
*provably* (up to the algorithm's failure probability) among the top-k, using
the same per-vertex confidence bounds f/g that drive the stopping rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.result import BetweennessResult
from repro.core.stopping import f_function, g_function

__all__ = ["TopKResult", "confidence_bounds", "identify_top_k"]


@dataclass
class TopKResult:
    """Outcome of a top-k identification.

    Attributes
    ----------
    k:
        Requested number of top vertices.
    vertices:
        The k vertices with the highest estimates, in decreasing order.
    confirmed:
        Boolean array aligned with ``vertices``: ``True`` where the vertex's
        lower confidence bound exceeds the upper confidence bound of the first
        vertex outside the top-k, i.e. the membership is statistically
        separated at the run's confidence level.
    lower_bounds, upper_bounds:
        Per-vertex confidence interval endpoints (length ``n``).
    """

    k: int
    vertices: np.ndarray
    confirmed: np.ndarray
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray

    @property
    def num_confirmed(self) -> int:
        return int(np.count_nonzero(self.confirmed))

    @property
    def all_confirmed(self) -> bool:
        return bool(np.all(self.confirmed))


def confidence_bounds(
    result: BetweennessResult,
    delta_l: Optional[np.ndarray] = None,
    delta_u: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex confidence intervals derived from the f/g error bounds.

    With the calibration vectors ``delta_l``/``delta_u`` (which a live
    :class:`~repro.session.EstimationSession` retains) the intervals are
    exactly the ones the stopping rule certified; without them a uniform
    split of the run's ``delta`` is used — always sound, merely looser.
    """
    n = result.num_vertices
    if result.num_samples <= 0 or result.omega is None:
        width = np.full(n, np.inf)
        return result.scores - width, result.scores + width
    if delta_l is None or delta_u is None:
        # Without the calibration vectors, fall back to a uniform split of the
        # run's delta over vertices and sides (always sound, merely looser).
        delta = result.delta if result.delta is not None else 0.1
        per_vertex = np.full(n, max(delta / (2.0 * n), 1e-300))
        delta_l = per_vertex
        delta_u = per_vertex
    f_vals = f_function(result.scores, delta_l, result.omega, result.num_samples)
    g_vals = g_function(result.scores, delta_u, result.omega, result.num_samples)
    lower = np.maximum(result.scores - np.asarray(f_vals), 0.0)
    upper = np.minimum(result.scores + np.asarray(g_vals), 1.0)
    return lower, upper


def identify_top_k(
    result: BetweennessResult,
    k: int,
    *,
    delta_l: Optional[np.ndarray] = None,
    delta_u: Optional[np.ndarray] = None,
) -> TopKResult:
    """Return the top-k vertices and flag which memberships are confirmed.

    A vertex's membership is *confirmed* when its lower confidence bound is at
    least the largest upper confidence bound among vertices outside the
    top-k — then no vertex outside the set can overtake it within the
    algorithm's error guarantee.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    n = result.num_vertices
    k = min(k, n)
    lower, upper = confidence_bounds(result, delta_l, delta_u)
    order = np.argsort(-result.scores, kind="stable")
    top = order[:k]
    rest = order[k:]
    threshold = float(np.max(upper[rest])) if rest.size > 0 else -np.inf
    confirmed = lower[top] >= threshold
    return TopKResult(
        k=k,
        vertices=top,
        confirmed=np.asarray(confirmed, dtype=bool),
        lower_bounds=lower,
        upper_bounds=upper,
    )
