"""Parallel adaptive sampling: the rank engine, its epoch loop (Algorithms 1 and 2) and the epoch framework."""

from repro.parallel.epoch_length import EpochLength, thread_zero_samples_per_epoch
from repro.parallel.epochs import EpochManager, FramePool
from repro.parallel.engine import EpochStats, adaptive_sampling_epochs, run_rank

__all__ = [
    "EpochLength",
    "thread_zero_samples_per_epoch",
    "EpochManager",
    "FramePool",
    "EpochStats",
    "adaptive_sampling_epochs",
    "run_rank",
]
