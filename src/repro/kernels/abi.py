"""Kernel ABI: capability-probed kernel registry and deterministic routing.

Before this module, kernel choice was a hardcoded ``_KERNELS`` dict plus
ad-hoc small-graph thresholds buried in ``kernels/batch.py``.  The ABI
formalises that layer: every sampling kernel is one :class:`KernelSpec` in a
process-global registry, carrying

* **capabilities** — whether the kernel is batch-native (advances all pairs
  of a batch at once), RNG-stream compatible with the legacy scalar
  samplers, weighted/directed-ready;
* an **availability probe** — run once per process and cached, so an
  optional accelerated backend whose import or self-test fails degrades
  gracefully to the portable kernels instead of erroring at sample time;
* **cost hints** — a coarse cost-model tag plus a suitability window over
  (graph size, adjacency entries, index dtype) that drives automatic
  routing, and an ``auto_rank`` tie-break.

Routing precedence (:func:`resolve_kernel`):

1. an **explicit request** (``Resources(kernel=...)``, the CLI ``--kernel``
   flag, or ``BatchPathSampler(kernel=...)``) always wins; an unknown name
   raises :class:`ValueError`, an unavailable kernel raises
   :class:`KernelUnavailableError`;
2. the ``REPRO_KERNEL`` environment variable; an unknown or unavailable
   value *warns* and falls through to automatic routing (an env var must
   never hard-fail a batch job);
3. **automatic routing**: among available kernels of the requested family
   whose suitability window matches the graph, the lowest ``auto_rank``
   wins.  Only stream-compatible kernels participate, which keeps every
   default code path bit-identical to the pre-ABI behaviour for a fixed
   seed (the golden-digest tests pin this down); the batch-native wavefront
   kernel — statistically identical but a different stream — is selected by
   explicit request or ``REPRO_KERNEL`` only.

See ``docs/kernels.md`` for the full design sketch.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "REPRO_KERNEL_ENV",
    "KernelSpec",
    "KernelUnavailableError",
    "register_kernel",
    "unregister_kernel",
    "get_kernel",
    "kernel_names",
    "list_kernels",
    "kernel_available",
    "clear_probe_cache",
    "resolve_kernel",
    "describe_routing",
    "format_kernel_table",
]

#: Environment variable overriding automatic kernel routing.
REPRO_KERNEL_ENV = "REPRO_KERNEL"


class KernelUnavailableError(RuntimeError):
    """An explicitly requested kernel failed its availability probe."""


def _always(num_vertices: int, num_entries: int, dtype) -> bool:
    return True


def _probe_ok() -> bool:
    return True


@dataclass(frozen=True)
class KernelSpec:
    """Registry entry: one sampling kernel plus capability metadata.

    Attributes
    ----------
    name:
        Registry key; also the CLI ``--kernel`` choice and the valid values
        of ``REPRO_KERNEL``.
    description:
        One line for ``--list-kernels`` and the docs table.
    family:
        ``"bidirectional"`` or ``"unidirectional"`` — which search algorithm
        the kernel implements.  Automatic routing only considers kernels of
        the family selected by the driver's ``method``; explicit overrides
        may cross families (both families sample uniform shortest paths, so
        the estimator stays correct — only cost accounting and the RNG
        stream change).
    batch_native:
        True when the kernel advances all pairs of a batch simultaneously
        (SoA wavefront) instead of being called once per pair.
    stream_compatible:
        True when the kernel consumes the RNG bit-identically to the legacy
        scalar samplers.  Automatic routing requires this; kernels without
        it are opt-in only.
    weighted / directed_ready:
        Capability bits for future graph models (no registered kernel
        supports either yet — the bits exist so accelerated backends can
        declare them without an ABI change).
    cost_hint:
        Coarse cost-model tag (``"python-bfs"``, ``"numpy-bfs"``,
        ``"vectorized-wavefront"``, ...).
    auto_rank:
        Tie-break for automatic routing: lowest wins among suitable kernels.
    preferred_batch:
        Batch-size hint for :func:`repro.kernels.policy.kernel_batch_cap`:
        batch-native kernels amortise best at whole-slab batches.
    probe:
        Availability check, run once per process and cached; exceptions
        count as unavailable (graceful degradation).
    suited:
        ``suited(num_vertices, num_entries, dtype) -> bool`` — the automatic
        routing window.  Explicit requests bypass it.
    make_per_pair:
        ``make_per_pair(indptr, indices) -> (kernel_fn, op_indptr,
        op_indices)`` for per-pair kernels: returns the callable with the
        operand representation it wants (ndarray CSR, Python lists, ...).
    make_batch:
        ``make_batch(graph) -> sampler`` for batch-native kernels: returns
        an object with the ``sample_batch`` / ``sample_pairs`` /
        ``sample_path`` surface of :class:`~repro.kernels.batch
        .BatchPathSampler`.
    """

    name: str
    description: str = ""
    family: str = "bidirectional"
    batch_native: bool = False
    stream_compatible: bool = True
    weighted: bool = False
    directed_ready: bool = False
    cost_hint: str = "numpy-bfs"
    auto_rank: int = 100
    preferred_batch: Optional[int] = None
    probe: Callable[[], bool] = field(repr=False, default=_probe_ok)
    suited: Callable[[int, int, object], bool] = field(repr=False, default=_always)
    make_per_pair: Optional[Callable] = field(repr=False, default=None)
    make_batch: Optional[Callable] = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if self.family not in ("bidirectional", "unidirectional"):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if (self.make_per_pair is None) == (self.make_batch is None):
            raise ValueError(
                "a kernel spec must define exactly one of make_per_pair / make_batch"
            )


_REGISTRY: Dict[str, KernelSpec] = {}
_PROBE_CACHE: Dict[str, bool] = {}


def register_kernel(spec: KernelSpec, *, replace: bool = False) -> KernelSpec:
    """Register a kernel spec; duplicate names require ``replace=True``."""
    if not spec.name or not isinstance(spec.name, str):
        raise ValueError("kernel name must be a non-empty string")
    if spec.name == "auto":
        raise ValueError("'auto' is reserved for automatic routing")
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"kernel {spec.name!r} is already registered (pass replace=True)")
    _REGISTRY[spec.name] = spec
    _PROBE_CACHE.pop(spec.name, None)
    return spec


def unregister_kernel(name: str) -> None:
    """Remove a kernel (mostly useful for tests of the registry itself)."""
    _REGISTRY.pop(name, None)
    _PROBE_CACHE.pop(name, None)


def get_kernel(name: str) -> KernelSpec:
    """Look up a kernel by name, with a helpful error for unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(kernel_names()) or "<none>"
        raise ValueError(f"unknown kernel {name!r}; registered kernels: {known}") from None


def kernel_names() -> Tuple[str, ...]:
    """Registered kernel names in registration order."""
    return tuple(_REGISTRY)


def list_kernels() -> Tuple[KernelSpec, ...]:
    """All registered kernel specs in registration order."""
    return tuple(_REGISTRY.values())


def kernel_available(name_or_spec) -> bool:
    """Whether a kernel's availability probe passes (run once, cached)."""
    spec = get_kernel(name_or_spec) if isinstance(name_or_spec, str) else name_or_spec
    cached = _PROBE_CACHE.get(spec.name)
    if cached is None:
        try:
            cached = bool(spec.probe())
        except Exception:  # degrade gracefully: a broken probe = unavailable
            cached = False
        _PROBE_CACHE[spec.name] = cached
    return cached


def clear_probe_cache() -> None:
    """Forget cached probe results (tests that stub probes call this)."""
    _PROBE_CACHE.clear()


def resolve_kernel(
    num_vertices: int,
    num_entries: int,
    dtype=None,
    *,
    family: str = "bidirectional",
    requested: Optional[str] = None,
    env: Optional[str] = "<unset>",
) -> KernelSpec:
    """Resolve which kernel a sampler should use (see the module docstring).

    ``env`` defaults to reading ``REPRO_KERNEL`` from the process
    environment; pass ``None`` to disable the env lookup explicitly (the
    routing-prediction report uses this to show both answers).
    """
    if requested is not None:
        spec = get_kernel(requested)
        if not kernel_available(spec):
            raise KernelUnavailableError(
                f"kernel {requested!r} was requested explicitly but its "
                f"availability probe failed"
            )
        return spec
    if env == "<unset>":
        env = os.environ.get(REPRO_KERNEL_ENV)
    if env:
        spec = _REGISTRY.get(env)
        if spec is None:
            warnings.warn(
                f"{REPRO_KERNEL_ENV}={env!r} is not a registered kernel "
                f"(known: {', '.join(kernel_names())}); using automatic routing",
                RuntimeWarning,
                stacklevel=2,
            )
        elif not kernel_available(spec):
            warnings.warn(
                f"{REPRO_KERNEL_ENV}={env!r} failed its availability probe; "
                f"using automatic routing",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            return spec
    candidates = [
        s
        for s in _REGISTRY.values()
        if s.family == family
        and s.stream_compatible
        and kernel_available(s)
        and s.suited(int(num_vertices), int(num_entries), dtype)
    ]
    if not candidates:
        raise KernelUnavailableError(
            f"no available kernel of family {family!r} suits a graph of "
            f"{num_vertices} vertices / {num_entries} adjacency entries"
        )
    return min(candidates, key=lambda s: (s.auto_rank, s.name))


def describe_routing(num_vertices: int, num_entries: int, dtype=None) -> Dict[str, Optional[str]]:
    """What routing would pick for a graph — for ``repro.cli info``.

    Returns ``{"auto": ..., "env": ..., "effective": ...}`` where ``auto``
    is the pure size/dtype-based choice, ``env`` the current
    ``REPRO_KERNEL`` value (or None) and ``effective`` what a sampler
    constructed right now would actually use.
    """
    auto = resolve_kernel(num_vertices, num_entries, dtype, env=None).name
    env = os.environ.get(REPRO_KERNEL_ENV) or None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        effective = resolve_kernel(num_vertices, num_entries, dtype).name
    return {"auto": auto, "env": env, "effective": effective}


def format_kernel_table() -> str:
    """A plain-text capability table of all registered kernels."""
    headers = (
        "name",
        "family",
        "kind",
        "stream",
        "weighted",
        "directed",
        "available",
        "cost model",
        "description",
    )
    rows = [
        (
            spec.name,
            spec.family,
            "batch" if spec.batch_native else "per-pair",
            "yes" if spec.stream_compatible else "no",
            "yes" if spec.weighted else "no",
            "yes" if spec.directed_ready else "no",
            "yes" if kernel_available(spec) else "no",
            spec.cost_hint,
            spec.description,
        )
        for spec in list_kernels()
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    from repro.kernels import compiled

    lines.append("")
    lines.append(compiled.describe())
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Default registrations
# --------------------------------------------------------------------------- #

def _make_smallgraph(indptr: np.ndarray, indices: np.ndarray):
    from repro.kernels.smallgraph import adjacency_lists, bidirectional_sample_small

    list_indptr, list_indices = adjacency_lists(indptr, indices)
    return bidirectional_sample_small, list_indptr, list_indices


def _make_bidirectional(indptr: np.ndarray, indices: np.ndarray):
    # One kernel, two searches that return the same samples: the compiled one
    # where it was built, passed its self-check and can read these arrays.
    from repro.kernels import compiled
    from repro.kernels.bidirectional import bidirectional_sample

    if compiled.usable(indptr, indices):
        return compiled.compiled_sample, indptr, indices
    return bidirectional_sample, indptr, indices


def _make_unidirectional(indptr: np.ndarray, indices: np.ndarray):
    from repro.kernels.unidirectional import unidirectional_sample

    return unidirectional_sample, indptr, indices


def _smallgraph_window(num_vertices: int, num_entries: int, dtype) -> bool:
    from repro.kernels.smallgraph import (
        SMALL_GRAPH_ENTRY_LIMIT,
        SMALL_GRAPH_VERTEX_LIMIT,
    )

    return num_vertices <= SMALL_GRAPH_VERTEX_LIMIT and num_entries <= SMALL_GRAPH_ENTRY_LIMIT


def _make_wavefront(graph):
    from repro.kernels.wavefront import WavefrontSampler

    return WavefrontSampler(graph)


def _register_default_kernels() -> None:
    register_kernel(
        KernelSpec(
            name="smallgraph",
            description="pure-Python bidirectional BFS over list adjacency",
            family="bidirectional",
            stream_compatible=True,
            cost_hint="python-bfs",
            auto_rank=10,
            suited=_smallgraph_window,
            make_per_pair=_make_smallgraph,
        )
    )
    register_kernel(
        KernelSpec(
            name="bidirectional",
            description="pooled balanced bidirectional sigma-BFS (compiled search, or numpy)",
            family="bidirectional",
            stream_compatible=True,
            cost_hint="numpy-bfs",
            auto_rank=20,
            make_per_pair=_make_bidirectional,
        )
    )
    register_kernel(
        KernelSpec(
            name="unidirectional",
            description="pooled numpy truncated single-sided sigma-BFS",
            family="unidirectional",
            stream_compatible=True,
            cost_hint="numpy-bfs",
            auto_rank=20,
            make_per_pair=_make_unidirectional,
        )
    )
    register_kernel(
        KernelSpec(
            name="wavefront",
            description="cross-sample SoA wavefront (K pairs per numpy call)",
            family="bidirectional",
            batch_native=True,
            stream_compatible=False,
            cost_hint="vectorized-wavefront",
            auto_rank=50,
            preferred_batch=2048,
            make_batch=_make_wavefront,
        )
    )


_register_default_kernels()
