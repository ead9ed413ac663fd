"""Progress-event primitives shared by every betweenness driver.

The facade in :mod:`repro.api` lets callers observe long runs through
*progress callbacks*.  The event type and callback signature live here, below
the driver layer, so that :mod:`repro.core`, :mod:`repro.parallel` and
:mod:`repro.baselines` can emit events without importing the facade (which
imports them).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Tuple, Union

__all__ = ["ProgressEvent", "ProgressCallback", "combine_callbacks", "tag_backend"]


@dataclass(frozen=True)
class ProgressEvent:
    """One observable step of a betweenness run.

    Attributes
    ----------
    phase:
        Which part of the algorithm produced the event (``"diameter"``,
        ``"calibration"``, ``"adaptive_sampling"``, ``"sampling"``,
        ``"sssp"`` or the final ``"done"``).
    epoch:
        Aggregation rounds (or stopping-rule checks) completed so far.
    num_samples:
        Samples aggregated so far as seen by the rank evaluating the stopping
        rule (for exact algorithms: SSSP sources completed).
    omega:
        The static sample budget, once known (``None`` before the diameter
        phase finishes and for exact algorithms).
    backend:
        Registry name of the backend that emitted the event.  Drivers emit
        ``None``; the facade tags events with the resolved backend name.
    ts:
        Monotonic-clock seconds since the run's callback was wrapped by
        :func:`tag_backend` (``None`` from a driver, before tagging), so
        streamed job progress carries timing without any wall-clock skew
        between producer and consumer.
    """

    phase: str
    epoch: int = 0
    num_samples: int = 0
    omega: Optional[int] = None
    backend: Optional[str] = None
    ts: Optional[float] = None

    def as_dict(self) -> dict:
        """The event as a JSON-serializable dict.

        This is the representation the query service streams to polling
        clients as job progress (``GET /v1/jobs/<id>``, see
        ``docs/serving.md``).
        """
        return {
            "phase": self.phase,
            "epoch": int(self.epoch),
            "num_samples": int(self.num_samples),
            "omega": None if self.omega is None else int(self.omega),
            "backend": self.backend,
            "ts": None if self.ts is None else float(self.ts),
        }


ProgressCallback = Callable[[ProgressEvent], None]


def combine_callbacks(
    callbacks: Union[ProgressCallback, Iterable[ProgressCallback], None],
) -> Optional[ProgressCallback]:
    """Normalise ``callbacks`` (one callable, a sequence, or ``None``) to a
    single callable (or ``None`` when there is nothing to call)."""
    if callbacks is None:
        return None
    if callable(callbacks):
        return callbacks
    chain: Tuple[ProgressCallback, ...] = tuple(callbacks)
    if not chain:
        return None
    if any(not callable(cb) for cb in chain):
        raise TypeError("callbacks must be callables taking a ProgressEvent")
    if len(chain) == 1:
        return chain[0]

    def fan_out(event: ProgressEvent) -> None:
        for cb in chain:
            cb(event)

    return fan_out


def tag_backend(
    callback: Union[ProgressCallback, Iterable[ProgressCallback], None],
    backend: str,
) -> Optional[ProgressCallback]:
    """Wrap ``callback`` so every event it sees carries the backend name and a ``ts``.

    An event without a ``ts`` is stamped with the monotonic seconds since
    this call wrapped the callback; one without a backend gets ``backend``.
    Accepts anything :func:`combine_callbacks` accepts — a single callable,
    an iterable of them (normalised internally, so the fan-out sees tagged
    events regardless of composition order), or ``None``.
    """
    callback = combine_callbacks(callback)
    if callback is None:
        return None
    start = time.monotonic()

    def tagged(event: ProgressEvent) -> None:
        if event.backend is None:
            event = replace(event, backend=backend)
        if event.ts is None:
            event = replace(event, ts=time.monotonic() - start)
        callback(event)

    return tagged
