"""Pluggable backend registry for betweenness estimation.

Every execution mode of the paper — sequential KADABRA, the epoch-based
shared-memory parallelization, the MPI-style distributed algorithms, the RK
and source-sampling baselines and exact Brandes — is one :class:`BackendSpec`
in a process-global registry.  The facade (:func:`repro.api.facade.
estimate_betweenness`) and the CLI derive their ``algorithm`` choices from the
registry, so adding a backend (sharded, cached, async, ...) is a single
:func:`register_backend` call instead of a fork of the dispatch code.  The
query service goes one step further and derives its cache-reuse *algorithm
families* from the capability metadata (``exact`` + ``cost_hint``; see
:mod:`repro.service.dominance`), so registered backends participate in
dominance-aware result reuse automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.api.resources import Resources
from repro.core.result import BetweennessResult
from repro.util.table import format_table

__all__ = [
    "AUTO",
    "BackendSpec",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "backend_names",
    "list_backends",
    "select_backend",
    "format_backend_table",
]

AUTO = "auto"
"""Reserved algorithm name: let :func:`select_backend` pick the backend."""

#: Largest graph (in vertices) for which ``algorithm="auto"`` may pick an
#: exact O(|V||E|) backend.
EXACT_AUTO_VERTEX_LIMIT = 256


@dataclass(frozen=True)
class BackendSpec:
    """Registry entry: one betweenness backend plus capability metadata.

    Attributes
    ----------
    name:
        Registry key; also the CLI ``--algorithm`` choice.
    runner:
        ``runner(graph, options, resources, progress) -> BetweennessResult``.
    description:
        One line for ``--list-backends`` and the docs table.
    exact:
        True for exact algorithms (no eps/delta guarantee needed).
    supports_threads / supports_processes:
        Which dimensions of :class:`~repro.api.resources.Resources` the
        backend honours.
    supports_kernels:
        Whether the backend honours ``Resources.kernel`` — a forced sampling
        kernel from the ABI registry (:mod:`repro.kernels.abi`).  Backends
        that do their own traversal (exact Brandes, source sampling) ignore
        the field and leave this False.
    supports_refinement:
        Whether the backend's run can be kept as a resumable session
        (``refine``/``checkpoint``/``restore``): the one-worker computation
        of the rank engine, whose state a session holds.
        :func:`repro.session.open_session` refuses every other backend with
        ``SessionCapabilityError``; the facade opens a session only for
        ``checkpoint_path`` on such a backend (every other call runs the
        ``runner``), and the query service uses the flag to decide which
        cached results may carry a refinable checkpoint.
    supports_updates:
        Whether the backend's session checkpoints can be carried across an
        edge delta by the incremental estimator (:mod:`repro.evolve`) —
        requires the per-sample path log only the native sequential engine
        records, so this implies (and is stricter than)
        ``supports_refinement``.
    cost_hint:
        Coarse cost model: ``"adaptive-sampling"`` (KADABRA-style),
        ``"fixed-sampling"`` (a-priori bound) or ``"n-sssp"`` (per-source
        traversals).
    auto_rank:
        Tie-break for ``algorithm="auto"``: among capable backends the lowest
        rank wins (deterministically).
    max_auto_vertices:
        Auto-selection considers the backend only for graphs up to this many
        vertices (``None`` = no limit).  Used to keep exact backends off
        large graphs.
    """

    name: str
    runner: Callable[..., BetweennessResult] = field(repr=False)
    description: str = ""
    exact: bool = False
    supports_threads: bool = False
    supports_processes: bool = False
    supports_kernels: bool = False
    supports_refinement: bool = False
    supports_updates: bool = False
    cost_hint: str = "adaptive-sampling"
    auto_rank: int = 100
    max_auto_vertices: Optional[int] = None


_REGISTRY: Dict[str, BackendSpec] = {}


def register_backend(
    name: str,
    runner: Callable[..., BetweennessResult],
    *,
    replace: bool = False,
    **capabilities,
) -> BackendSpec:
    """Register a betweenness backend and return its spec.

    ``capabilities`` are the other :class:`BackendSpec` fields (``description``,
    ``exact``, ``supports_threads``, ...), each defaulting as the spec does; an
    unknown one raises :class:`TypeError`.  Raises :class:`ValueError` for the
    reserved name ``"auto"`` and for duplicate registrations unless
    ``replace=True``.
    """
    if not name or not isinstance(name, str):
        raise ValueError("backend name must be a non-empty string")
    if name == AUTO:
        raise ValueError(f"{AUTO!r} is reserved for automatic selection")
    if not callable(runner):
        raise TypeError("runner must be callable")
    if name in _REGISTRY and not replace:
        raise ValueError(f"backend {name!r} is already registered (pass replace=True)")
    spec = BackendSpec(name=name, runner=runner, **capabilities)
    _REGISTRY[name] = spec
    return spec


def unregister_backend(name: str) -> None:
    """Remove a backend (mostly useful for tests of the registry itself)."""
    _REGISTRY.pop(name, None)


def get_backend(name: str) -> BackendSpec:
    """Look up a backend by name, with a helpful error for unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(backend_names()) or "<none>"
        raise ValueError(f"unknown backend {name!r}; registered backends: {known}") from None


def backend_names() -> Tuple[str, ...]:
    """Registered backend names in registration order."""
    return tuple(_REGISTRY)


def list_backends() -> Tuple[BackendSpec, ...]:
    """All registered backend specs in registration order."""
    return tuple(_REGISTRY.values())


def select_backend(num_vertices: int, resources: Resources) -> BackendSpec:
    """Deterministically pick a backend from graph size and resources.

    The rule mirrors how the paper chooses an execution mode: multiple
    processes demand a distributed backend, multiple threads a shared-memory
    one, and a single worker runs exact Brandes on tiny graphs (where it is
    both fastest and error-free) or sequential KADABRA otherwise.  Ties are
    broken by ``auto_rank`` then name, so the choice is a pure function of
    ``(num_vertices, resources, registry contents)``.
    """
    specs = list_backends()
    if not specs:
        raise ValueError("no backends registered")

    def size_ok(spec: BackendSpec) -> bool:
        return spec.max_auto_vertices is None or num_vertices <= spec.max_auto_vertices

    if resources.processes > 1:
        pool = [s for s in specs if s.supports_processes and size_ok(s)]
        requirement = "supports_processes"
    elif resources.threads > 1:
        pool = [s for s in specs if s.supports_threads and size_ok(s)]
        requirement = "supports_threads"
    else:
        pool = [s for s in specs if s.exact and size_ok(s)]
        requirement = "single-worker"
        if not pool:
            pool = [s for s in specs if not s.exact and size_ok(s)]
    if not pool:
        raise ValueError(
            f"no registered backend satisfies {requirement} for a graph of "
            f"{num_vertices} vertices"
        )
    return min(pool, key=lambda s: (s.auto_rank, s.name))


def format_backend_table() -> str:
    """A plain-text capability table of all registered backends."""
    headers = ("name", "kind", "threads", "processes", "kernels", "refine", "updates", "cost", "description")
    rows = [
        (
            spec.name,
            "exact" if spec.exact else "approx",
            "yes" if spec.supports_threads else "no",
            "yes" if spec.supports_processes else "no",
            "yes" if spec.supports_kernels else "no",
            "yes" if spec.supports_refinement else "no",
            "yes" if spec.supports_updates else "no",
            spec.cost_hint,
            spec.description,
        )
        for spec in list_backends()
    ]
    return format_table(headers, rows)
