"""Parallel adaptive sampling: the rank engine, its epoch loop (Algorithms 1 and 2) and the epoch framework."""

from repro.parallel.epochs import EpochManager, FramePool
from repro.parallel.engine import EpochGrid, EpochStats, adaptive_sampling_epochs, run_rank

__all__ = [
    "EpochGrid",
    "EpochManager",
    "FramePool",
    "EpochStats",
    "adaptive_sampling_epochs",
    "run_rank",
]
