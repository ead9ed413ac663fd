"""Epoch-length rule (Section IV-D of the paper).

The parameter ``n0`` is the number of samples thread 0 takes before it
initiates the next epoch transition (and hence the next check of the stopping
condition).  Adding processes/threads increases the number of samples taken
per unit of time, so the rule *decreases* the epoch length with the total
thread count::

    n0 = base / (P * T) ** 1.33          (base = 1000)

matching the shared-memory rule ``1000 / T^1.33`` of Ref. [24] generalised to
``P * T`` workers.  It applies only when ``P * T > 1``: one worker is
sequential KADABRA, which checks on the
:class:`~repro.core.stopping.CheckSchedule` and stops at ``omega`` at the
latest.

Between the first and the last epoch, ``n0`` only bounds the *minimum*
epoch length: the samples thread 0 takes while the previous epoch's
aggregation and broadcast are in flight (at most ``n0`` in epoch 1, later
capped only near ``omega``, by the budget left) are credited to the epoch
too, which is why large graphs (large communication volume) show few, long
epochs and road networks show hundreds of short ones (Table II).
Epoch 0 draws ``n0`` in all: the samples thread 0 took while the diameter
broadcast or the calibration reduce was in flight count toward it.  The
last epoch draws the budget left, ``omega - tau``, split over the workers
(:func:`repro.parallel.engine.adaptive_sampling_epochs`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EpochLength", "thread_zero_samples_per_epoch", "DEFAULT_BASE", "DEFAULT_EXPONENT"]

DEFAULT_BASE = 1000.0
DEFAULT_EXPONENT = 1.33


def thread_zero_samples_per_epoch(
    num_processes: int, num_threads: int, *, base: float = DEFAULT_BASE
) -> int:
    """Number of samples thread 0 takes per epoch before forcing a transition.

    ``base`` shortened by ``(P * T) ** -DEFAULT_EXPONENT``, never below one.
    """
    if num_processes <= 0 or num_threads <= 0:
        raise ValueError("num_processes and num_threads must be positive")
    if base <= 0:
        raise ValueError("base must be positive")
    workers = float(num_processes * num_threads)
    return max(1, int(round(base * (1.0 / workers) ** DEFAULT_EXPONENT)))


@dataclass(frozen=True)
class EpochLength:
    """The ``P * T > 1`` check grid: thread 0 draws ``n0`` samples every epoch.

    The epoch loop's other grid is one worker's
    :class:`~repro.core.stopping.CheckSchedule`; both answer
    ``epoch_samples(epoch, tau)``.
    """

    n0: int

    def __post_init__(self) -> None:
        if self.n0 <= 0:
            raise ValueError("samples per epoch must be positive")

    def epoch_samples(self, epoch: int, tau: int) -> int:
        return self.n0
