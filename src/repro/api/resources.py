"""Execution-resource description consumed by the backend registry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

__all__ = ["Resources"]


@dataclass(frozen=True)
class Resources:
    """How much parallel hardware a run may use.

    The facade passes one ``Resources`` object to every backend; backends that
    do not support a dimension simply ignore it (the result still records the
    requested configuration, so runs remain comparable).

    Attributes
    ----------
    processes:
        MPI-style ranks ``P`` (the paper's distributed dimension).
    threads:
        Sampling threads ``T`` per rank / shared-memory threads.
    kernel:
        Force a specific registered sampling kernel (see
        :mod:`repro.kernels.abi` and ``repro.cli --list-kernels``) instead of
        the ABI's automatic routing.  ``None`` (default) routes by graph
        size/dtype; unknown names raise at construction time.  Backends
        without kernel support ignore it.
    """

    processes: int = 1
    threads: int = 1
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if self.processes <= 0:
            raise ValueError("processes must be positive")
        if self.threads <= 0:
            raise ValueError("threads must be positive")
        if self.kernel is not None:
            from repro.kernels import get_kernel

            get_kernel(self.kernel)  # unknown names fail fast, availability later

    @property
    def total_workers(self) -> int:
        """Total sampling workers ``P * T``."""
        return self.processes * self.threads

    def as_dict(self) -> Dict[str, Union[int, str]]:
        """The resource configuration as a plain dict (for result metadata)."""
        out: Dict[str, Union[int, str]] = {
            "processes": self.processes,
            "threads": self.threads,
        }
        if self.kernel is not None:
            out["kernel"] = self.kernel
        return out
