"""Parallel adaptive sampling: the rank engine, its epoch loop (Algorithms 1 and 2) and the epoch framework."""

from repro.parallel.epoch_length import thread_zero_samples_per_epoch
from repro.parallel.epochs import EpochManager, FramePool
from repro.parallel.engine import (
    EpochBoundary,
    EpochStats,
    adaptive_sampling_epochs,
    run_rank,
)

__all__ = [
    "thread_zero_samples_per_epoch",
    "EpochManager",
    "FramePool",
    "EpochBoundary",
    "EpochStats",
    "adaptive_sampling_epochs",
    "run_rank",
]
