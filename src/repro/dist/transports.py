"""Transport registry: which communicator implementations can run here.

The kernels registry answers "which sampling backends does this machine
support"; this module answers the same question for the distributed
transport.  ``repro.cli --list-backends`` prints both tables side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

__all__ = ["TransportSpec", "list_transports", "format_transport_table"]


@dataclass(frozen=True)
class TransportSpec:
    """Capability card of one transport."""

    name: str
    description: str
    probe: Callable[[], Tuple[bool, str]]
    multiprocess: bool
    multihost: bool


def _probe_always(detail: str) -> Callable[[], Tuple[bool, str]]:
    return lambda: (True, detail)


def _registry() -> List[TransportSpec]:
    from repro.dist.mpi4py_adapter import probe_mpi4py

    return [
        TransportSpec(
            name="threaded",
            description="Ranks as threads of one process; conformance fixture, runs no estimation",
            probe=_probe_always("stdlib threading"),
            multiprocess=False,
            multihost=False,
        ),
        TransportSpec(
            name="socket",
            description="TCP sockets with rank-0 rendezvous hub; forked local ranks, remote hosts",
            probe=_probe_always("stdlib sockets"),
            multiprocess=True,
            multihost=True,
        ),
        TransportSpec(
            name="mpi4py",
            description="MPI via mpi4py under mpirun/srun; cluster deployments",
            probe=probe_mpi4py,
            multiprocess=True,
            multihost=True,
        ),
    ]


def list_transports() -> List[TransportSpec]:
    """All known transports in display order."""
    return _registry()


def format_transport_table() -> str:
    """A plain-text availability table, like ``format_backend_table``."""
    headers = ("transport", "available", "processes", "hosts", "description")
    rows = []
    for spec in list_transports():
        available, detail = spec.probe()
        rows.append(
            (
                spec.name,
                f"yes ({detail})" if available else f"no ({detail})",
                "yes" if spec.multiprocess else "no",
                "yes" if spec.multihost else "no",
                spec.description,
            )
        )
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i]) for i in range(len(headers))]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)
