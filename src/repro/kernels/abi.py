"""Kernel table and routing: which search a sampler runs.

Every sampling kernel is one :class:`KernelSpec` in a name → spec table, and
:func:`resolve_kernel` is the only place a kernel is chosen:

1. an **explicit request** (``Resources(kernel=...)``, the CLI ``--kernel``
   flag, ``make_sampler(kernel=...)``) always wins; an unknown name raises
   :class:`ValueError`;
2. the ``REPRO_KERNEL`` environment variable; an unknown value *warns* and
   falls through (an env var must never hard-fail a batch job);
3. otherwise ``bidirectional`` when the compiled search can read the graph's
   arrays (:func:`repro.kernels.compiled.usable`), else ``smallgraph`` inside
   the ``SMALL_GRAPH_*`` window, else ``bidirectional`` with its numpy search.

The three searches step 3 chooses between draw the same samples from the same
generator state, so it decides speed only (``docs/kernels.md`` has the
measurements).  Anything else in the table — ``unidirectional``, the
batch-native ``wavefront`` with its different stream, a kernel added with
:func:`register_kernel` — is reached by steps 1 and 2 only.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.util.table import format_table

__all__ = [
    "REPRO_KERNEL_ENV",
    "KernelSpec",
    "register_kernel",
    "get_kernel",
    "kernel_names",
    "resolve_kernel",
    "describe_routing",
    "format_kernel_table",
]

#: Environment variable overriding automatic kernel routing.
REPRO_KERNEL_ENV = "REPRO_KERNEL"


@dataclass(frozen=True)
class KernelSpec:
    """Table entry: one sampling kernel.

    Attributes
    ----------
    name:
        Table key; also the CLI ``--kernel`` choice and the valid values of
        ``REPRO_KERNEL``.
    description:
        One line for ``--list-kernels`` and the docs table.
    batch_native:
        True when the kernel advances all pairs of a batch simultaneously
        (SoA wavefront) instead of being called once per pair.
    stream_compatible:
        True when the kernel consumes the RNG bit-identically to the
        reference samplers (:mod:`repro.sampling._reference`).
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
    batch_native: bool = False
    stream_compatible: bool = True
    make_per_pair: Optional[Callable] = field(repr=False, default=None)
    make_batch: Optional[Callable] = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if (self.make_per_pair is None) == (self.make_batch is None):
            raise ValueError(
                "a kernel spec must define exactly one of make_per_pair / make_batch"
            )


_REGISTRY: Dict[str, KernelSpec] = {}


def register_kernel(spec: KernelSpec, *, replace: bool = False) -> KernelSpec:
    """Add a kernel to the table; duplicate names require ``replace=True``.

    Routing never picks an added kernel by itself: it runs when asked for by
    name (explicit request or ``REPRO_KERNEL``).
    """
    if not spec.name or not isinstance(spec.name, str):
        raise ValueError("kernel name must be a non-empty string")
    if spec.name == "auto":
        raise ValueError("'auto' is reserved for automatic routing")
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"kernel {spec.name!r} is already registered (pass replace=True)")
    _REGISTRY[spec.name] = spec
    return spec


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


def resolve_kernel(
    indptr: np.ndarray,
    indices: np.ndarray,
    *,
    requested: Optional[str] = None,
    env: Optional[str] = "<unset>",
) -> KernelSpec:
    """The kernel a sampler over these CSR arrays runs (see the module docstring).

    ``env`` defaults to reading ``REPRO_KERNEL`` from the process
    environment; pass ``None`` to leave it out (:func:`describe_routing`
    shows both answers).
    """
    if requested is not None:
        return get_kernel(requested)
    if env == "<unset>":
        env = os.environ.get(REPRO_KERNEL_ENV)
    if env:
        spec = _REGISTRY.get(env)
        if spec is not None:
            return spec
        warnings.warn(
            f"{REPRO_KERNEL_ENV}={env!r} is not a registered kernel "
            f"(known: {', '.join(kernel_names())}); using automatic routing",
            RuntimeWarning,
            stacklevel=2,
        )
    from repro.kernels import compiled
    from repro.kernels.smallgraph import SMALL_GRAPH_ENTRY_LIMIT, SMALL_GRAPH_VERTEX_LIMIT

    small = indptr.size - 1 <= SMALL_GRAPH_VERTEX_LIMIT and indices.size <= SMALL_GRAPH_ENTRY_LIMIT
    if small and not compiled.usable(indptr, indices):
        return _REGISTRY["smallgraph"]
    return _REGISTRY["bidirectional"]


def describe_routing(graph) -> Dict[str, Optional[str]]:
    """What routing picks for a graph — for ``repro.cli info``.

    Returns ``{"auto": ..., "env": ..., "effective": ...}`` where ``auto``
    is the choice with ``REPRO_KERNEL`` left out, ``env`` its current value
    (or None) and ``effective`` what a sampler constructed right now would
    actually use.
    """
    from repro.kernels.scratch import csr_views

    indptr, _, indices = csr_views(graph)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        effective = resolve_kernel(indptr, indices).name
    return {
        "auto": resolve_kernel(indptr, indices, env=None).name,
        "env": os.environ.get(REPRO_KERNEL_ENV) or None,
        "effective": effective,
    }


def format_kernel_table() -> str:
    """A plain-text table of all registered kernels, then what runs the search."""
    from repro.kernels import compiled

    headers = ("name", "kind", "stream", "description")
    rows = [
        (
            spec.name,
            "batch" if spec.batch_native else "per-pair",
            "yes" if spec.stream_compatible else "no",
            spec.description,
        )
        for spec in _REGISTRY.values()
    ]
    return f"{format_table(headers, rows)}\n\n{compiled.describe()}"


# --------------------------------------------------------------------------- #
# The built-in kernels
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


def _make_wavefront(graph):
    from repro.kernels.wavefront import WavefrontSampler

    return WavefrontSampler(graph)


for _spec in (
    KernelSpec(
        name="smallgraph",
        description="pure-Python bidirectional BFS over list adjacency",
        make_per_pair=_make_smallgraph,
    ),
    KernelSpec(
        name="bidirectional",
        description="pooled balanced bidirectional sigma-BFS (compiled search, or numpy)",
        make_per_pair=_make_bidirectional,
    ),
    KernelSpec(
        name="unidirectional",
        description="pooled numpy truncated single-sided sigma-BFS",
        make_per_pair=_make_unidirectional,
    ),
    KernelSpec(
        name="wavefront",
        description="cross-sample SoA wavefront (K pairs per numpy call)",
        batch_native=True,
        stream_compatible=False,
        make_batch=_make_wavefront,
    ),
):
    register_kernel(_spec)
