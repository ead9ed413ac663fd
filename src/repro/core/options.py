"""User-facing configuration for the KADABRA drivers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.util.validation import check_positive, check_probability

__all__ = ["KadabraOptions"]


@dataclass(frozen=True)
class KadabraOptions:
    """Options shared by the sequential, shared-memory and MPI drivers.

    Attributes
    ----------
    eps:
        Absolute approximation error; the paper's headline experiments use
        0.001 (and 0.01 for the older shared-memory results).
    delta:
        Failure probability (paper: 0.1).
    seed:
        Master RNG seed; per-thread streams are derived deterministically.
    use_bidirectional_bfs:
        Sample paths with the balanced bidirectional BFS (KADABRA's default)
        or with a plain unidirectional BFS.
    calibration_samples:
        Number of non-adaptive samples in the calibration phase; ``None``
        selects the default heuristic (a fraction of ``omega``).
    samples_per_check:
        Base number of samples taken between stopping-condition checks for a
        single worker (the ``n0`` constant); the parallel drivers shorten it
        to ``n0 / (P*T)**epoch_exponent`` following Section IV-D (see
        :mod:`repro.parallel.epoch_length`).
    epoch_exponent:
        The exponent of the epoch-length rule (1.33 in the paper).
    max_samples_override:
        If set, caps ``omega`` (useful in tests and small experiments).
    vertex_diameter_override:
        If set, skips the diameter phase and uses the given upper bound.
    """

    eps: float = 0.01
    delta: float = 0.1
    seed: Optional[int] = None
    use_bidirectional_bfs: bool = True
    calibration_samples: Optional[int] = None
    samples_per_check: int = 1000
    epoch_exponent: float = 1.33
    max_samples_override: Optional[int] = None
    vertex_diameter_override: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive(self.eps, "eps")
        check_probability(self.delta, "delta")
        if self.samples_per_check <= 0:
            raise ValueError("samples_per_check must be positive")
        if self.epoch_exponent <= 0:
            raise ValueError("epoch_exponent must be positive")
        if self.calibration_samples is not None and self.calibration_samples <= 0:
            raise ValueError("calibration_samples must be positive when given")
        if self.max_samples_override is not None and self.max_samples_override <= 0:
            raise ValueError("max_samples_override must be positive when given")
        if self.vertex_diameter_override is not None and self.vertex_diameter_override < 2:
            raise ValueError("vertex_diameter_override must be >= 2 when given")

    def with_(self, **changes) -> "KadabraOptions":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)
