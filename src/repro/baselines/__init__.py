"""Baselines: exact Brandes betweenness and the RK fixed-sample approximation."""

from repro.baselines.brandes import brandes_betweenness
from repro.baselines.rk import rk_sample_size
from repro.baselines.source_sampling import source_sample_size

__all__ = [
    "brandes_betweenness",
    "rk_sample_size",
    "source_sample_size",
]
