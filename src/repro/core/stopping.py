"""KADABRA's sample-size bound and adaptive stopping condition.

The stopping rule follows Borassi & Natale (ESA 2016).  With ``tau`` samples
taken, empirical betweenness ``b~(v)``, per-vertex failure probabilities
``delta_L(v)`` and ``delta_U(v)`` and the static maximum number of samples
``omega``, the algorithm may stop as soon as for *every* vertex ``v``

    f(b~(v), delta_L(v), omega, tau) <= eps   and
    g(b~(v), delta_U(v), omega, tau) <= eps.

``f`` bounds the probability that the estimate overshoots the true value and
``g`` the probability that it undershoots; both shrink as ``tau`` grows.  The
functions are not monotone in ``c~``/``tau`` jointly, which is why the parallel
algorithms must always evaluate them on a *consistent* aggregated state frame.

A check costs O(touched + distinct zero-class deltas) plus one cheap O(n) scan
of the counts (``flatnonzero(counts != 0)``).  ``f`` and ``g`` of a vertex
depend only on its count and its ``(delta_L, delta_U)`` pair, so all
zero-count vertices that hold one pair give one row.
:class:`StoppingCondition` groups the vertices by pair once, when it is
built; a check then evaluates the vertices with a nonzero count plus one
``b~ = 0`` row per pair that some zero-count vertex holds.  Each row is the
same elementwise float computation as in a whole-frame evaluation, so the
maxima are bit-identical to it.  Today's calibration gives every vertex the
same pair whenever some count is 0, so the zero class is one extra row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.state_frame import StateFrame
from repro.util.validation import check_positive, check_probability

__all__ = [
    "compute_omega",
    "f_function",
    "g_function",
    "StoppingCondition",
    "CheckSchedule",
]

#: Universal constant of the VC-dimension style sample-size bound used by
#: KADABRA (and by RK before it).
OMEGA_CONSTANT = 0.5


def compute_omega(eps: float, delta: float, vertex_diameter: int, *, constant: float = OMEGA_CONSTANT) -> int:
    """Static maximum number of samples ``omega``.

    ``omega = (c / eps^2) * (floor(log2(VD - 2)) + 1 + log(2 / delta))`` where
    ``VD`` is an upper bound on the vertex diameter.  For degenerate inputs
    (``VD <= 2``, e.g. a single edge) ``floor(log2(VD - 2)) + 1`` is taken
    as 1, its value at ``VD = 3``.  ``docs/guarantee.md`` states the bound.
    """
    check_positive(eps, "eps")
    check_probability(delta, "delta")
    if vertex_diameter < 0:
        raise ValueError("vertex_diameter must be non-negative")
    if vertex_diameter > 2:
        log_term = math.floor(math.log2(vertex_diameter - 2)) + 1
    else:
        log_term = 1
    omega = (constant / (eps * eps)) * (log_term + math.log(2.0 / delta))
    return int(math.ceil(omega))


def f_function(
    b_tilde: np.ndarray | float,
    delta_l: np.ndarray | float,
    omega: float,
    tau: float,
) -> np.ndarray | float:
    """Upper-deviation bound ``f`` (vectorized over vertices).

    ``f = (log(1/delta_L) / tau) * (sqrt((omega/tau - 1/3)^2
    + 2 b~ omega / log(1/delta_L)) - (omega/tau - 1/3))``
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    b = np.asarray(b_tilde, dtype=np.float64)
    log_term = np.log(1.0 / np.asarray(delta_l, dtype=np.float64))
    ratio = omega / float(tau) - 1.0 / 3.0
    inner = np.sqrt(ratio * ratio + 2.0 * b * omega / log_term) - ratio
    result = inner * log_term / float(tau)
    if np.isscalar(b_tilde) and np.isscalar(delta_l):
        return float(result)
    return result


def g_function(
    b_tilde: np.ndarray | float,
    delta_u: np.ndarray | float,
    omega: float,
    tau: float,
) -> np.ndarray | float:
    """Lower-deviation bound ``g`` (vectorized over vertices).

    ``g = (log(1/delta_U) / tau) * (sqrt((omega/tau + 1/3)^2
    + 2 b~ omega / log(1/delta_U)) + (omega/tau + 1/3))``
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    b = np.asarray(b_tilde, dtype=np.float64)
    log_term = np.log(1.0 / np.asarray(delta_u, dtype=np.float64))
    ratio = omega / float(tau) + 1.0 / 3.0
    inner = np.sqrt(ratio * ratio + 2.0 * b * omega / log_term) + ratio
    result = inner * log_term / float(tau)
    if np.isscalar(b_tilde) and np.isscalar(delta_u):
        return float(result)
    return result


@dataclass
class StoppingCondition:
    """Evaluates KADABRA's stopping rule on aggregated state frames.

    Parameters
    ----------
    eps:
        Target absolute error.
    omega:
        Static maximum number of samples; the rule always stops once
        ``tau >= omega``.
    delta_l, delta_u:
        Per-vertex failure probabilities produced by the calibration phase.
    """

    eps: float
    omega: int
    delta_l: np.ndarray
    delta_u: np.ndarray

    def __post_init__(self) -> None:
        check_positive(self.eps, "eps")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        self.delta_l = np.asarray(self.delta_l, dtype=np.float64)
        self.delta_u = np.asarray(self.delta_u, dtype=np.float64)
        if self.delta_l.shape != self.delta_u.shape:
            raise ValueError("delta_l and delta_u must have the same shape")
        uniform = True
        for name, deltas in (("delta_l", self.delta_l), ("delta_u", self.delta_u)):
            if deltas.size == 0:
                continue
            low, high = deltas.min(), deltas.max()
            # A NaN makes both NaN, which fails this test too.
            if not (0 < low and high < 1):
                raise ValueError(f"{name} values must lie in (0, 1)")
            uniform = uniform and low == high
        # The distinct (delta_L, delta_U) pairs and, when there are several,
        # each vertex's pair index and each pair's vertex count.
        self._pair_of = self._pair_sizes = None
        if uniform:
            self._pairs = np.stack([self.delta_l.ravel()[:1], self.delta_u.ravel()[:1]], axis=-1)
        else:
            pairs = np.stack([self.delta_l.ravel(), self.delta_u.ravel()], axis=-1)
            self._pairs, pair_of = np.unique(pairs, axis=0, return_inverse=True)
            self._pair_of = pair_of.reshape(-1)
            self._pair_sizes = np.bincount(self._pair_of, minlength=len(self._pairs))

    @property
    def num_vertices(self) -> int:
        return int(self.delta_l.size)

    # ------------------------------------------------------------------ #
    def max_error_bounds(self, frame: StateFrame) -> tuple[float, float]:
        """Return ``(max_v f, max_v g)`` for the aggregated frame.

        Evaluates the vertices with a nonzero count plus one ``b~ = 0`` row
        per ``(delta_L, delta_U)`` pair that a zero-count vertex holds.
        """
        if frame.num_samples <= 0:
            return float("inf"), float("inf")
        # Comparing first: flatnonzero of a bool array is several times faster.
        touched = np.flatnonzero(frame.counts != 0)
        if self._pair_of is None:
            zero_rows = self._pairs[: int(touched.size < self.num_vertices)]
        else:
            held = np.bincount(self._pair_of[touched], minlength=len(self._pairs))
            zero_rows = self._pairs[held < self._pair_sizes]
        b_tilde = np.zeros(touched.size + len(zero_rows))
        b_tilde[: touched.size] = frame.counts[touched] / float(frame.num_samples)
        delta_l = np.concatenate([self.delta_l[touched], zero_rows[:, 0]])
        delta_u = np.concatenate([self.delta_u[touched], zero_rows[:, 1]])
        f_vals = f_function(b_tilde, delta_l, self.omega, frame.num_samples)
        g_vals = g_function(b_tilde, delta_u, self.omega, frame.num_samples)
        return float(np.max(f_vals)), float(np.max(g_vals))

    def should_stop(self, frame: StateFrame) -> bool:
        """CHECKFORSTOP: true when the accuracy guarantee is reached or the
        static sample budget ``omega`` is exhausted."""
        if frame.num_samples >= self.omega:
            return True
        if frame.num_samples <= 0:
            return False
        f_max, g_max = self.max_error_bounds(frame)
        return f_max <= self.eps and g_max <= self.eps


@dataclass(frozen=True)
class CheckSchedule:
    """The deterministic grid of sample counts where a sequential run checks.

    A one-shot adaptive run evaluates the stopping rule first when the
    calibration samples are in (``tau = calibration_samples``) and then after
    every block of ``samples_per_check`` further samples, never drawing past
    ``omega`` — so its check boundaries are exactly

        ``min(calibration_samples + k * samples_per_check, omega)``.

    Making the grid an explicit object is what lets a *resumed* session align
    itself with the schedule a fresh run at the tighter target would follow:
    :meth:`next_boundary` returns the first boundary at or past the current
    sample count, and drawing up to it puts the resumed run back on the exact
    decision points of the cold run (the sample *stream* is position-based, so
    the accumulated counters agree at every shared boundary).
    """

    calibration_samples: int
    samples_per_check: int
    omega: int

    def __post_init__(self) -> None:
        if self.calibration_samples < 0:
            raise ValueError("calibration_samples must be non-negative")
        if self.samples_per_check <= 0:
            raise ValueError("samples_per_check must be positive")
        if self.omega <= 0:
            raise ValueError("omega must be positive")

    @property
    def first_check(self) -> int:
        return min(self.calibration_samples, self.omega)

    def next_boundary(self, tau: int) -> int:
        """The first check boundary at or after ``tau`` (clamped to omega)."""
        if tau >= self.omega:
            return self.omega
        if tau <= self.first_check:
            return self.first_check
        blocks_done = -(-(tau - self.calibration_samples) // self.samples_per_check)
        return min(
            self.calibration_samples + blocks_done * self.samples_per_check,
            self.omega,
        )

    def advance(self, tau: int) -> int:
        """Samples to draw from boundary ``tau`` to the next check (0 at omega)."""
        if tau >= self.omega:
            return 0
        return min(self.samples_per_check, self.omega - tau)

    def next_epoch(self, epoch: int, tau: int, left: int) -> Optional[Tuple[int, int, float]]:
        """The epoch loop's plan for its epoch ``epoch`` (see
        :func:`repro.parallel.engine.adaptive_sampling_epochs`).

        Epoch 0 only aligns ``tau`` with the grid (nothing to draw in a cold
        run, whose calibration ends on the first boundary), and a run always
        makes that check; every later epoch draws one block, until a check
        stopped the run (``left == 0``).  One worker has no last epoch to
        plan and no overlap to cap.
        """
        if epoch == 0:
            return max(0, self.next_boundary(tau) - tau), 0, math.inf
        return (self.advance(tau), 0, math.inf) if left else None
