"""Edge deltas over stored graphs: the ingestion unit of ``repro.evolve``.

A :class:`GraphDelta` is a canonicalized batch of undirected edge insertions
and deletions against a fixed vertex set.  Deltas are the unit the evolving-
graph pipeline moves around: the catalog applies one to a parent ``.rcsr``
container to produce a versioned child container (recording the connection in
its lineage sidecar, see :meth:`repro.store.GraphCatalog.apply_delta`), and
the incremental estimator (:mod:`repro.evolve.incremental`) uses the *same*
delta to decide which accumulated path samples a mutation invalidated.

Canonical form
--------------
Construction normalises every edge to ``u < v``, sorts lexicographically and
deduplicates, so two deltas describing the same mutation compare equal and
hash to the same lineage digest regardless of input order.  Self-loops, an
edge listed both as insertion and deletion, and negative endpoints are
rejected up front (:class:`DeltaError`) — a delta that validates is applicable
to *some* graph; :meth:`GraphDelta.validate_against` checks applicability to a
concrete one (deletions must exist, insertions must not, endpoints in range).
Deltas never grow the vertex set: the incremental estimator's accumulators are
sized by ``n``, and the paper's serving story mutates edges, not identities.

The JSON file format (``repro-betweenness evolve apply --delta-file``) is::

    {"version": 1, "insert": [[u, v], ...], "delete": [[u, v], ...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["DELTA_FORMAT_VERSION", "DeltaError", "GraphDelta", "apply_delta"]

PathLike = Union[str, Path]

DELTA_FORMAT_VERSION = 1


class DeltaError(ValueError):
    """Raised for malformed deltas or deltas inapplicable to a graph."""


def _canonical_edges(edges, *, kind: str) -> np.ndarray:
    """Coerce an edge collection to a sorted, deduplicated ``(k, 2)`` int64
    array with ``u < v`` per row (the canonical undirected form)."""
    array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if array.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 2:
        raise DeltaError(f"{kind} edges must be (k, 2) shaped, got {array.shape}")
    if not np.issubdtype(array.dtype, np.integer):
        converted = array.astype(np.int64)
        if not np.array_equal(converted, array):
            raise DeltaError(f"{kind} edges must be integer vertex pairs")
        array = converted
    array = array.astype(np.int64, copy=True)
    if int(array.min()) < 0:
        raise DeltaError(f"{kind} edges contain negative vertex ids")
    if np.any(array[:, 0] == array[:, 1]):
        raise DeltaError(f"{kind} edges contain self-loops")
    array.sort(axis=1)
    order = np.lexsort((array[:, 1], array[:, 0]))
    array = array[order]
    keep = np.ones(array.shape[0], dtype=bool)
    keep[1:] = np.any(array[1:] != array[:-1], axis=1)
    return np.ascontiguousarray(array[keep])


def _json_edges(value: object, *, kind: str) -> list:
    """A JSON edge list, checked before numpy sees it: a list of ``[u, v]``
    lists of non-bool integers in ``[0, 2^63)``."""
    if not isinstance(value, list):
        raise DeltaError(f"{kind} must be a list of [u, v] pairs, got {type(value).__name__}")
    for index, edge in enumerate(value):
        if not (
            isinstance(edge, list)
            and len(edge) == 2
            and all(type(x) is int and 0 <= x < 2**63 for x in edge)
        ):
            raise DeltaError(f"{kind}[{index}] is not a [u, v] pair of vertex ids in [0, 2^63)")
    return value


def _edge_keys(edges: np.ndarray, num_vertices: int) -> np.ndarray:
    """Collision-free int64 key per canonical edge (``u * n + v``)."""
    return edges[:, 0] * np.int64(num_vertices) + edges[:, 1]


@dataclass(frozen=True)
class GraphDelta:
    """A canonical batch of undirected edge insertions and deletions."""

    insertions: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), np.int64))
    deletions: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), np.int64))

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "insertions", _canonical_edges(self.insertions, kind="insert")
        )
        object.__setattr__(
            self, "deletions", _canonical_edges(self.deletions, kind="delete")
        )
        if self.insertions.size and self.deletions.size:
            bound = (
                int(max(self.insertions.max(), self.deletions.max())) + 1
            )
            overlap = np.intersect1d(
                _edge_keys(self.insertions, bound), _edge_keys(self.deletions, bound)
            )
            if overlap.size:
                u, v = divmod(int(overlap[0]), bound)
                raise DeltaError(
                    f"edge ({u}, {v}) appears in both insert and delete"
                )

    # ------------------------------------------------------------------ #
    @property
    def num_insertions(self) -> int:
        return int(self.insertions.shape[0])

    @property
    def num_deletions(self) -> int:
        return int(self.deletions.shape[0])

    @property
    def num_edges(self) -> int:
        """Total edges touched by the delta."""
        return self.num_insertions + self.num_deletions

    @property
    def is_empty(self) -> bool:
        return self.num_edges == 0

    def endpoints(self) -> np.ndarray:
        """Sorted unique vertices incident to any delta edge."""
        if self.is_empty:
            return np.zeros(0, dtype=np.int64)
        return np.unique(
            np.concatenate([self.insertions.ravel(), self.deletions.ravel()])
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphDelta):
            return NotImplemented
        return np.array_equal(self.insertions, other.insertions) and np.array_equal(
            self.deletions, other.deletions
        )

    def __repr__(self) -> str:
        return (
            f"GraphDelta(+{self.num_insertions} edges, -{self.num_deletions} edges)"
        )

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate_against(self, graph: CSRGraph) -> None:
        """Check applicability: endpoints in range, deletions present in the
        graph, insertions absent from it.  Raises :class:`DeltaError`."""
        n = graph.num_vertices
        endpoints = self.endpoints()
        if endpoints.size and int(endpoints.max()) >= n:
            raise DeltaError(
                f"delta references vertex {int(endpoints.max())} but the graph "
                f"has only {n} vertices (deltas cannot grow the vertex set)"
            )
        for u, v in self.deletions:
            if not graph.has_edge(int(u), int(v)):
                raise DeltaError(
                    f"cannot delete edge ({int(u)}, {int(v)}): not present in the graph"
                )
        for u, v in self.insertions:
            if graph.has_edge(int(u), int(v)):
                raise DeltaError(
                    f"cannot insert edge ({int(u)}, {int(v)}): already present in the graph"
                )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        """The canonical JSON payload (stable across equal deltas)."""
        return {
            "version": DELTA_FORMAT_VERSION,
            "insert": self.insertions.tolist(),
            "delete": self.deletions.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "GraphDelta":
        if not isinstance(payload, dict):
            raise DeltaError(f"delta payload must be a JSON object, got {type(payload).__name__}")
        version = payload.get("version", DELTA_FORMAT_VERSION)
        if version != DELTA_FORMAT_VERSION:
            raise DeltaError(f"unsupported delta format version {version!r}")
        unknown = set(payload) - {"version", "insert", "delete"}
        if unknown:
            raise DeltaError(f"unknown delta keys {sorted(unknown)}")
        return cls(
            insertions=_json_edges(payload.get("insert", []), kind="insert"),
            deletions=_json_edges(payload.get("delete", []), kind="delete"),
        )

    def save(self, path: PathLike) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: PathLike) -> "GraphDelta":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise DeltaError(f"cannot read delta file {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise DeltaError(f"{path} is not valid delta JSON: {exc}") from None
        return cls.from_dict(payload)


def apply_delta(
    graph: CSRGraph, delta: GraphDelta, *, validate: bool = True
) -> CSRGraph:
    """The child graph ``graph - deletions + insertions`` (same vertex set).

    With ``validate=True`` (default) the delta must be exactly applicable
    (every deletion present, no insertion already there) — the strictness is
    what keeps lineage records invertible and the incremental estimator's
    invalidation test exact.  The result is a fresh in-memory
    :class:`~repro.graph.csr.CSRGraph`; persist it through
    :meth:`repro.store.GraphCatalog.apply_delta` to obtain a versioned
    ``.rcsr`` with lineage.
    """
    if validate:
        delta.validate_against(graph)
    n = graph.num_vertices
    edges = graph.edge_array()
    if delta.num_deletions:
        keep = ~np.isin(_edge_keys(edges, n), _edge_keys(delta.deletions, n))
        edges = edges[keep]
    if delta.num_insertions:
        edges = np.vstack([edges, delta.insertions]) if edges.size else delta.insertions
    return CSRGraph.from_edges(edges, num_vertices=n)
