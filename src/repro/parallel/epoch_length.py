"""Epoch-length rule (Section IV-D of the paper).

The parameter ``n0`` is the number of samples thread 0 takes before it
initiates the next epoch transition (and hence the next check of the stopping
condition).  Adding processes/threads increases the number of samples taken
per unit of time, so the rule *decreases* the epoch length with the total
thread count::

    n0 = base / (P * T) ** exponent          (base = 1000, exponent = 1.33)

matching the shared-memory rule ``1000 / T^1.33`` of Ref. [24] generalised to
``P * T`` workers.  Note that ``n0`` only bounds the *minimum* epoch length:
all sampling performed while the epoch's aggregation and broadcast are in
flight is also credited to the epoch, which is why large graphs (large
communication volume) show few, long epochs and road networks show hundreds of
short ones (Table II).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EpochLength", "thread_zero_samples_per_epoch", "DEFAULT_BASE", "DEFAULT_EXPONENT"]

DEFAULT_BASE = 1000.0
DEFAULT_EXPONENT = 1.33


def thread_zero_samples_per_epoch(
    num_processes: int,
    num_threads: int,
    *,
    base: float = DEFAULT_BASE,
    exponent: float = DEFAULT_EXPONENT,
) -> int:
    """Number of samples thread 0 takes per epoch before forcing a transition.

    A single worker (``P * T == 1``) checks every ``base`` samples; more
    workers shorten the epoch by ``(P * T) ** -exponent``, never below one.
    """
    if num_processes <= 0 or num_threads <= 0:
        raise ValueError("num_processes and num_threads must be positive")
    if base <= 0 or exponent <= 0:
        raise ValueError("base and exponent must be positive")
    workers = float(num_processes * num_threads)
    value = base * (1.0 / workers) ** exponent
    return max(1, int(round(value)))


@dataclass(frozen=True)
class EpochLength:
    """The parallel check grid: thread 0 draws ``n0`` samples every epoch.

    The epoch loop's other grid is the sequential session's
    :class:`~repro.core.stopping.CheckSchedule`; both answer
    ``epoch_samples(epoch, tau)``.
    """

    n0: int

    def __post_init__(self) -> None:
        if self.n0 <= 0:
            raise ValueError("samples per epoch must be positive")

    def epoch_samples(self, epoch: int, tau: int) -> int:
        return self.n0
