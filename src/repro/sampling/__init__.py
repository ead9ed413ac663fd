"""Shortest-path sampling: what a sample is, the pair draw and the RNG streams.

The sampler the drivers hold is :class:`repro.kernels.BatchPathSampler`, made
by :func:`repro.core.kadabra.make_sampler`, and it draws only in batches
(``sample_batch``, ``sample_pairs``).  The original allocating per-sample
samplers are the tests' oracle, in ``tests/reference_samplers.py``.
"""

from repro.sampling.base import PathSample, sample_vertex_pair
from repro.sampling.rng import (
    derive_seed,
    draw_vertex_pairs,
    rng_for_rank_thread,
)

__all__ = [
    "PathSample",
    "sample_vertex_pair",
    "rng_for_rank_thread",
    "derive_seed",
    "draw_vertex_pairs",
]
