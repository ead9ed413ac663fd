"""``repro.dist`` — the real multi-process distributed runtime.

Everything below :mod:`repro.parallel` was written against the
:class:`~repro.mpi.interface.Communicator` ABC, whose multi-rank semantics
live once in :mod:`repro.mpi.hub` (one matcher, one client).  This package
carries them across processes and hosts, and starts every local rank the same
way — by fork from the process that asked for it
(:func:`~repro.dist.socketcomm.fork_rank`):

* :mod:`repro.dist.socketcomm` — :class:`SocketComm`, the hub's client over
  TCP: a rank-0 :class:`SocketHub` that frames contributions into the matcher
  with length-prefixed stdlib framing, and a background receive thread that
  completes the client's requests; :func:`run_forked`, which the facade's
  ``processes > 1`` runs on.
* :mod:`repro.dist.mpi4py_adapter` — the same ABC over ``mpi4py`` when the
  container has it, behind a capability probe (never a hard dependency).
* :mod:`repro.dist.transports` — the probe-backed transport registry shown by
  ``repro.cli --list-backends``.
* :mod:`repro.dist.driver` — per-worker phase driver: partitioned graph view,
  diameter/calibration/adaptive phases through the unchanged epoch framework,
  epoch-boundary checkpoints and resume.
* :mod:`repro.dist.launcher` — ``repro.cli dist run``: fork N local worker
  processes, monitor them, fork the world again with resume after a crash.
  ``repro.cli dist worker`` is the entry for ranks it cannot fork: remote
  hosts and ``mpirun``.
"""

from repro.dist.socketcomm import CommError, SocketComm, SocketHub, run_forked, run_socket
from repro.dist.transports import TransportSpec, format_transport_table, list_transports

__all__ = [
    "CommError",
    "SocketComm",
    "SocketHub",
    "TransportSpec",
    "format_transport_table",
    "list_transports",
    "run_forked",
    "run_socket",
]
