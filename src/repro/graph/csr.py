"""Compressed-sparse-row graph data structure.

The paper uses NetworKit's CSR graph with 32-bit vertex ids; every sampling
thread shares one read-only copy of the graph.  :class:`CSRGraph` mirrors that
design: two numpy arrays (``indptr``, ``indices``) describe the adjacency of an
undirected, unweighted graph.  The structure is immutable after construction,
which makes it safe to share across the sampling threads of the MPI substrate.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["CSRGraph", "validate_csr"]


def validate_csr(indptr: np.ndarray, indices: np.ndarray) -> None:
    """Raise :class:`ValueError` unless the arrays are a well-formed CSR adjacency.

    One vectorised pass over each array.  :class:`CSRGraph` runs it at
    construction; :class:`~repro.kernels.batch.BatchPathSampler` runs it again
    on whatever graph it is given (a memory-mapped ``.rcsr`` is opened without
    it), so that no kernel ever indexes with an entry it has not seen.
    """
    if indptr.ndim != 1 or indices.ndim != 1:
        raise ValueError("indptr and indices must be one-dimensional")
    if indptr.size == 0:
        raise ValueError("indptr must have length n + 1 >= 1")
    if indptr[0] != 0:
        raise ValueError("indptr[0] must be 0")
    if indptr[-1] != indices.size:
        raise ValueError("indptr[-1] must equal len(indices)")
    if np.any(np.diff(indptr) < 0):
        raise ValueError("indptr must be non-decreasing")
    n = indptr.size - 1
    if indices.size > 0 and (int(indices.max()) >= n or int(indices.min()) < 0):
        raise ValueError("indices contain out-of-range vertex ids")


class CSRGraph:
    """An immutable undirected, unweighted graph in CSR form.

    Parameters
    ----------
    indptr:
        Array of length ``n + 1``; the neighbours of vertex ``v`` are
        ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        Concatenated adjacency lists.  For an undirected graph every edge
        ``{u, v}`` appears both in the list of ``u`` and in the list of ``v``.
    validate:
        If true (default), check structural invariants at construction time.
    """

    __slots__ = ("_indptr", "_indices", "_num_edges", "_source_path")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        # 32-bit ids as in the paper's NetworKit configuration; fall back to
        # int64 only if the graph is too large for uint32.
        if len(indices) > 0 and int(np.max(indices)) >= np.iinfo(np.uint32).max:
            indices = np.asarray(indices, dtype=np.int64)
        else:
            indices = np.asarray(indices, dtype=np.uint32)
        if validate:
            validate_csr(indptr, indices)
        self._indptr = indptr
        self._indptr.setflags(write=False)
        self._indices = indices
        self._indices.setflags(write=False)
        self._num_edges = int(indices.size) // 2
        self._source_path = None

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return int(self._indptr.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m`` (each edge counted once)."""
        return self._num_edges

    @property
    def indptr(self) -> np.ndarray:
        """The CSR row-pointer array (read-only view)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """The CSR adjacency array (read-only view)."""
        return self._indices

    @property
    def source_path(self):
        """Path of the ``.rcsr`` file backing this graph, or ``None``.

        Set by :func:`repro.store.open_rcsr`; drivers with multiple workers
        use it to re-open the memory map per worker instead of shipping the
        arrays.
        """
        return self._source_path

    @property
    def is_memory_mapped(self) -> bool:
        """Whether the CSR arrays are memory-mapped from an ``.rcsr`` file."""
        return isinstance(self._indptr, np.memmap) or isinstance(self._indices, np.memmap)

    @property
    def degrees(self) -> np.ndarray:
        """Vertex degrees as an int64 array of length ``n``."""
        return np.diff(self._indptr)

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbours of vertex ``v`` as a read-only array slice."""
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        nbrs = self.neighbors(u)
        if nbrs.size == 0:
            return False
        # Adjacency lists are sorted by construction (GraphBuilder sorts them).
        pos = int(np.searchsorted(nbrs, v))
        return pos < nbrs.size and int(nbrs[pos]) == int(v)

    def density(self) -> float:
        """Edge density ``2m / (n (n-1))`` (0 for graphs with < 2 vertices)."""
        n = self.num_vertices
        if n < 2:
            return 0.0
        return 2.0 * self.num_edges / (n * (n - 1))

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the CSR arrays in bytes."""
        return int(self._indptr.nbytes + self._indices.nbytes)

    # ------------------------------------------------------------------ #
    # Iteration / export
    # ------------------------------------------------------------------ #
    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges ``(u, v)`` with ``u <= v``."""
        indptr = self._indptr
        indices = self._indices
        for u in range(self.num_vertices):
            for v in indices[indptr[u] : indptr[u + 1]]:
                v = int(v)
                if u <= v:
                    yield (u, v)

    def edge_array(self) -> np.ndarray:
        """Return an ``(m, 2)`` array of undirected edges with ``u <= v``."""
        n = self.num_vertices
        sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        targets = self._indices.astype(np.int64)
        mask = sources <= targets
        return np.column_stack((sources[mask], targets[mask]))

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_vertices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return bool(
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash((self.num_vertices, self.num_edges))

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]] | np.ndarray | Sequence[Sequence[int]],
        num_vertices: int | None = None,
    ) -> "CSRGraph":
        """Build a graph from an iterable of edges.

        Self-loops are dropped and duplicate edges are merged, matching how
        the paper reads its instances ("read as undirected and unweighted").
        """
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder(num_vertices=num_vertices)
        builder.add_edges(edges)
        return builder.build()

    @classmethod
    def from_validated_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        source_path=None,
    ) -> "CSRGraph":
        """Wrap already-canonical CSR arrays without copying or scanning them.

        Unlike ``__init__`` (which coerces dtypes — an O(m) scan), this trusts
        the caller: the store uses it so that a memory-mapped open touches no
        array pages.  ``indptr`` must be int64, ``indices`` uint32 or int64.
        """
        obj = cls.__new__(cls)
        obj._indptr = indptr
        obj._indices = indices
        obj._num_edges = int(indices.size) // 2
        obj._source_path = source_path
        return obj

    def save(self, path) -> "CSRGraph":
        """Write the graph as an ``.rcsr`` container (see :mod:`repro.store`).

        Returns ``self`` so that ``graph.save(path)`` chains.
        """
        from repro.store.format import write_rcsr

        write_rcsr(self, path)
        return self

    @classmethod
    def load(cls, path, *, mmap: bool = True) -> "CSRGraph":
        """Open an ``.rcsr`` container written by :meth:`save`.

        With ``mmap=True`` (default) the arrays are zero-copy memory maps.
        """
        from repro.store.format import open_rcsr

        return open_rcsr(path, mmap=mmap)

    @classmethod
    def empty(cls, num_vertices: int) -> "CSRGraph":
        """A graph with ``num_vertices`` isolated vertices."""
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        return cls(
            np.zeros(num_vertices + 1, dtype=np.int64),
            np.zeros(0, dtype=np.uint32),
            validate=False,
        )

    def subgraph(self, vertices: Sequence[int]) -> "CSRGraph":
        """Induced subgraph on ``vertices`` with ids relabelled to 0..k-1.

        The relabelling preserves the order of ``vertices``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size != np.unique(vertices).size:
            raise ValueError("subgraph vertex list contains duplicates")
        n = self.num_vertices
        mapping = np.full(n, -1, dtype=np.int64)
        mapping[vertices] = np.arange(vertices.size, dtype=np.int64)
        edges: List[Tuple[int, int]] = []
        for new_u, old_u in enumerate(vertices):
            for old_v in self.neighbors(int(old_u)):
                new_v = mapping[int(old_v)]
                if new_v >= 0 and new_u <= new_v:
                    edges.append((new_u, int(new_v)))
        return CSRGraph.from_edges(edges, num_vertices=int(vertices.size))
