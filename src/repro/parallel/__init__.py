"""Parallel adaptive sampling: the rank engine and its epoch loop (Algorithms 1 and 2)."""

from repro.parallel.epoch_length import thread_zero_samples_per_epoch
from repro.parallel.engine import (
    EpochBoundary,
    EpochStats,
    adaptive_sampling_epochs,
    run_rank,
)

__all__ = [
    "thread_zero_samples_per_epoch",
    "EpochBoundary",
    "EpochStats",
    "adaptive_sampling_epochs",
    "run_rank",
]
