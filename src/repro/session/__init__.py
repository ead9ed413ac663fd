"""Resumable estimation sessions (see :mod:`repro.session.session`).

A session keeps a run's state where ``estimate_betweenness``, which calls a
backend's registered runner, throws it away: :func:`open_session` creates an
:class:`EstimationSession` (for a backend registered with
``supports_refinement=True``) that owns the RNG stream, the frames and the
stopping state, and hands them to the rank engine's one worker.  ``run``
produces the runner's result, ``refine`` tightens it by sampling only the
delta, ``checkpoint``/``restore`` move sessions across processes, and
``peek``/``top_k`` answer confidence-aware queries from the live
accumulators.
"""

from repro.session.session import (
    ConfidenceEstimate,
    EstimationSession,
    SessionCapabilityError,
    SessionStateError,
    open_session,
)
from repro.session.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    read_snapshot,
    read_snapshot_meta,
    write_snapshot,
)

__all__ = [
    "ConfidenceEstimate",
    "EstimationSession",
    "SNAPSHOT_VERSION",
    "SessionCapabilityError",
    "SessionStateError",
    "SnapshotError",
    "open_session",
    "read_snapshot",
    "read_snapshot_meta",
    "write_snapshot",
]
