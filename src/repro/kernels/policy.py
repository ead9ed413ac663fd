"""Adaptive batch-size planning for the sampling drivers.

Batching amortises Python-call overhead, but large batches delay the points
where a driver can react — evaluate the stopping condition, acknowledge an
epoch transition, or notice the termination flag.  The policy resolves that
tension the way Section IV-D of the paper sizes epochs: cheap decisions often
early, expensive bulk work once the run is clearly mid-epoch.

``plan_batches`` therefore ramps geometrically (32, 64, ..., 1024) towards a
cap and sizes the final batch exactly to the stopping-condition boundary, so

* right after a check the driver stays responsive (a stop decision that is
  about to fire wastes at most a small batch of samples),
* mid-epoch the per-sample overhead is amortised over up to
  ``MAX_AUTO_BATCH`` samples, and
* a block never overshoots the check boundary — the drivers take *exactly*
  as many samples per check as the scalar code did, which keeps fixed-seed
  runs bit-identical.

Worker threads of the epoch framework use the small constant
:data:`WORKER_BATCH`: they must poll ``check_transition`` frequently or epoch
transitions (and thus stopping-rule evaluations) stall behind bulk sampling.
"""

from __future__ import annotations

from typing import Iterator, Union

from repro.obs import metrics as _metrics

__all__ = [
    "AUTO_BATCH",
    "MIN_AUTO_BATCH",
    "MAX_AUTO_BATCH",
    "WORKER_BATCH",
    "resolve_batch_size",
    "plan_batches",
    "worker_batch_size",
    "kernel_batch_cap",
]

AUTO_BATCH = "auto"
#: First (smallest) batch of an ``auto`` ramp.
MIN_AUTO_BATCH = 32
#: Largest batch of an ``auto`` ramp.
MAX_AUTO_BATCH = 1024
#: Batch size of epoch-framework worker threads (kept small so transitions
#: are acknowledged promptly).
WORKER_BATCH = 16

BatchSize = Union[int, str]

# Hot-path instrumentation (gated on repro.obs.metrics.ENABLED): every driver
# funnels its sampling through plan_batches, so these two counters are the
# per-process samples/sec source of truth for /metrics without touching any
# kernel inner loop.
_BATCHES_TOTAL = _metrics.REGISTRY.counter(
    "repro_kernel_batches_total", "Sampling batches planned by the batch policy"
)
_SAMPLES_TOTAL = _metrics.REGISTRY.counter(
    "repro_kernel_samples_total", "Samples scheduled through plan_batches"
)


def resolve_batch_size(batch_size: BatchSize) -> BatchSize:
    """Validate a ``batch_size`` knob: ``"auto"`` or a positive int."""
    if batch_size == AUTO_BATCH or batch_size is None:
        return AUTO_BATCH
    if isinstance(batch_size, bool) or not isinstance(batch_size, int):
        raise ValueError(f"batch_size must be 'auto' or a positive int, got {batch_size!r}")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    return batch_size


def plan_batches(
    total: int,
    batch_size: BatchSize = AUTO_BATCH,
    *,
    start: int = MIN_AUTO_BATCH,
    cap: int = MAX_AUTO_BATCH,
) -> Iterator[int]:
    """Yield batch sizes summing to exactly ``total``.

    With ``batch_size="auto"`` the sizes ramp geometrically from ``start`` to
    ``cap``; an explicit int yields fixed-size chunks.  ``total <= 0`` yields
    nothing.
    """
    if total <= 0:
        return
    batch_size = resolve_batch_size(batch_size)
    size = start if batch_size == AUTO_BATCH else batch_size
    remaining = int(total)
    while remaining > 0:
        take = min(size, remaining)
        if _metrics.ENABLED:
            _BATCHES_TOTAL.inc()
            _SAMPLES_TOTAL.inc(take)
        yield take
        remaining -= take
        if batch_size == AUTO_BATCH and size < cap:
            size = min(size * 2, cap)


def kernel_batch_cap(sampler=None) -> int:
    """The ``auto`` ramp cap suited to a sampler's kernel.

    Per-pair kernels keep the default :data:`MAX_AUTO_BATCH` — their cost is
    linear in the batch, so a larger cap only delays stopping-condition
    checks.  Batch-native kernels (``wavefront``) amortise per-level numpy
    dispatch across the whole batch and prefer whole-slab batches, so the cap
    grows to the spec's ``preferred_batch`` hint.  A sampler without a
    ``kernel_spec`` (none yet, or a sharded view's) keeps the default.
    """
    spec = getattr(sampler, "kernel_spec", None)
    if spec is not None and spec.batch_native and spec.preferred_batch:
        return max(MAX_AUTO_BATCH, int(spec.preferred_batch))
    return MAX_AUTO_BATCH


def worker_batch_size(batch_size: BatchSize) -> int:
    """Batch size for epoch-framework worker threads."""
    batch_size = resolve_batch_size(batch_size)
    if batch_size == AUTO_BATCH:
        return WORKER_BATCH
    return min(int(batch_size), WORKER_BATCH)
