"""Calibration of the per-vertex failure probabilities delta_L / delta_U.

KADABRA's second phase takes a fixed number of non-adaptive samples and uses
the resulting rough betweenness estimates to *distribute* the global failure
probability ``delta`` over the vertices.  Vertices that look important (large
preliminary estimate) receive a larger share so that their stopping-condition
terms shrink faster; the remaining vertices share a uniform floor.  Footnote 2
of the paper notes that the exact choice only influences the running time,
never the correctness; every assignment here has ``sum_v delta_L(v) +
delta_U(v) <= delta``, and ``docs/guarantee.md`` adds that sum to omega's
``delta / 2`` in the union bound.

The assignment below follows the reference implementation's scheme: a binary
search on a concentration parameter ``c`` such that the total probability mass
``sum_v exp(-c * w(v))`` matches the available budget, where the weight
``w(v)`` grows with the preliminary estimate; a small *balancing fraction* of
the budget is always distributed uniformly so that no vertex receives a
degenerate share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.state_frame import StateFrame
from repro.util.validation import check_positive, check_probability

__all__ = [
    "CalibrationResult",
    "calibrate_deltas",
    "calibration_sample_count",
    "default_calibration_samples",
]

#: Fraction of the failure-probability budget distributed uniformly.
BALANCING_FACTOR = 0.001


@dataclass
class CalibrationResult:
    """Per-vertex failure probabilities and the calibration frame."""

    delta_l: np.ndarray
    delta_u: np.ndarray
    preliminary_estimates: np.ndarray
    num_samples: int

    @property
    def total_budget_used(self) -> float:
        return float(np.sum(self.delta_l) + np.sum(self.delta_u))


def default_calibration_samples(omega: int, num_vertices: int) -> int:
    """Default number of non-adaptive calibration samples.

    A small fraction of the sample budget (1 %), at least a few hundred
    samples so that the preliminary ranking is meaningful, capped at 50 000
    (the calibration phase is only meant to *rank* vertices roughly) and never
    more than ``omega`` itself.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    guess = max(200, omega // 100)
    return int(min(guess, 50_000, omega))


def calibration_sample_count(
    requested: "int | None", omega: int, num_vertices: int
) -> int:
    """The calibration sample count every sequential-style driver uses.

    ``requested`` is :attr:`~repro.core.options.KadabraOptions
    .calibration_samples` (``None`` selects the default heuristic); the result
    is always capped at ``omega``.  The count is *monotone in omega* — a
    tighter (eps, delta) target never calibrates on fewer samples — which is
    the property session refinement relies on: the calibration prefix of a
    tighter target always extends the prefix of a looser one, so a resumed
    session can reconstruct the tighter target's calibration frame by
    replaying only the gap.
    """
    base = requested if requested is not None else default_calibration_samples(
        omega, num_vertices
    )
    return int(min(base, omega))


def calibrate_deltas(
    frame: StateFrame,
    delta: float,
    *,
    eps: float,
    balancing_factor: float = BALANCING_FACTOR,
) -> CalibrationResult:
    """Assign per-vertex failure probabilities from the calibration frame.

    Parameters
    ----------
    frame:
        Aggregated state frame of the (non-adaptive) calibration phase.
    delta:
        Global failure probability; the per-vertex assignment satisfies
        ``sum_v (delta_L(v) + delta_U(v)) <= delta``.
    eps:
        Target error; only used to scale the concentration weights.
    balancing_factor:
        Fraction of the budget reserved for the uniform floor.
    """
    check_probability(delta, "delta")
    check_positive(eps, "eps")
    if not (0.0 < balancing_factor < 1.0):
        raise ValueError("balancing_factor must lie in (0, 1)")
    n = frame.num_vertices
    if n <= 0:
        raise ValueError("calibration frame has no vertices")

    estimates = frame.betweenness_estimates()
    # Uniform floor: every vertex always receives at least this much for each
    # of delta_L and delta_U.
    floor = delta * balancing_factor / (4.0 * n)
    # Budget distributed proportionally to exp(-c * sqrt(b~)); the square root
    # compresses the dynamic range so that the search is well-conditioned even
    # when a handful of vertices dominate.
    adaptive_budget = delta * (1.0 - balancing_factor) / 2.0  # per side (L/U), below 1/2
    weights = np.sqrt(np.maximum(estimates, 0.0)) / max(eps, 1e-12)

    # Binary search for c such that sum(exp(-c * w)) == adaptive_budget.  The
    # left end c=0 gives n (too much mass); larger c only decreases the sum.
    # A vertex of weight 0 holds exp(-c * 0) = 1 of it at every c, more than
    # the budget: then no c exists (``min`` is NaN if a weight is, and such
    # weights take the search as before).
    uniform = weights.min() == 0.0
    if not uniform:
        lo, hi = 0.0, 1.0
        while float(np.sum(np.exp(-hi * weights - np.log(n)))) * n > adaptive_budget and hi < 1e12:
            hi *= 2.0
        # Even a huge c may not push the mass below the budget.
        uniform = float(np.sum(np.exp(-hi * weights))) > adaptive_budget
    if uniform:
        shares = np.full(n, adaptive_budget / n, dtype=np.float64)
    else:
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            # The mass at lo is above the budget and the mass at hi is not, so
            # once mid is one of them every later step recomputes this mid.
            if mid == lo or mid == hi:
                break
            total = float(np.sum(np.exp(-mid * weights)))
            if total > adaptive_budget:
                lo = mid
            else:
                hi = mid
        shares = np.exp(-hi * weights)
        # Normalise any residual slack so the full adaptive budget is used.
        total = float(np.sum(shares))
        if total > 0:
            shares *= adaptive_budget / total

    delta_l = np.clip(shares + floor, 1e-300, 0.4999999)
    delta_u = delta_l.copy()

    # Final safety rescale in case clipping inflated the total.
    total = float(np.sum(delta_l) + np.sum(delta_u))
    if total > delta:
        scale = delta / total
        delta_l *= scale
        delta_u *= scale
    return CalibrationResult(
        delta_l=delta_l,
        delta_u=delta_u,
        preliminary_estimates=estimates,
        num_samples=frame.num_samples,
    )
