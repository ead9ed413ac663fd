"""Adaptive batch planning for the sampling drivers.

Batching amortises Python-call overhead, but large batches delay the points
where a driver can react — evaluate the stopping condition, acknowledge an
epoch transition, or notice the termination flag.  The policy resolves that
tension the way Section IV-D of the paper sizes epochs: cheap decisions often
early, expensive bulk work once the run is clearly mid-epoch.

``plan_batches`` therefore ramps geometrically (32, 64, ..., 1024) and sizes
the final batch exactly to the stopping-condition boundary, so

* right after a check the driver stays responsive (a stop decision that is
  about to fire wastes at most a small batch of samples),
* mid-epoch the per-sample overhead is amortised over up to
  ``MAX_AUTO_BATCH`` samples, and
* a block never overshoots the check boundary — the drivers take *exactly*
  as many samples per check as the scalar code did, which keeps fixed-seed
  runs bit-identical.

Worker threads of the epoch framework, and thread 0 while a request is in
flight, use the small constant :data:`WORKER_BATCH`: they must poll
``check_transition`` or the request frequently, or epoch transitions (and
thus stopping-rule evaluations) stall behind bulk sampling.

The batch partition never changes a sample of the per-pair kernels (their
stream is the same for any partition), so the drivers own their batch sizes
and no layer above them exposes one.
"""

from __future__ import annotations

from typing import Iterator, Union

__all__ = [
    "AUTO_BATCH",
    "MIN_AUTO_BATCH",
    "MAX_AUTO_BATCH",
    "WORKER_BATCH",
    "plan_batches",
]

AUTO_BATCH = "auto"
#: First (smallest) batch of an ``auto`` ramp.
MIN_AUTO_BATCH = 32
#: Largest batch of an ``auto`` ramp.
MAX_AUTO_BATCH = 1024
#: Batch size of epoch-framework worker threads, and of thread 0's compiled
#: draws while a request is in flight (kept small so transitions and
#: completed requests are acknowledged promptly).  Samples are counted where
#: they are drawn, in :func:`repro.kernels.batch.count_samples`.
WORKER_BATCH = 16


def plan_batches(total: int, batch_size: Union[int, str] = AUTO_BATCH) -> Iterator[int]:
    """Yield batch sizes summing to exactly ``total``.

    With ``batch_size="auto"`` the sizes ramp geometrically from
    :data:`MIN_AUTO_BATCH` to :data:`MAX_AUTO_BATCH`; a positive int yields
    fixed-size chunks.  ``total <= 0`` yields nothing.
    """
    auto = batch_size == AUTO_BATCH
    if not auto and not (type(batch_size) is int and batch_size > 0):
        raise ValueError(f"batch_size must be 'auto' or a positive int, got {batch_size!r}")
    size = MIN_AUTO_BATCH if auto else batch_size
    remaining = int(total)
    while remaining > 0:
        take = min(size, remaining)
        yield take
        remaining -= take
        if auto:
            size = min(size * 2, MAX_AUTO_BATCH)
