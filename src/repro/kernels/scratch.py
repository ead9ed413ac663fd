"""Reusable per-worker search scratch: the zero-allocation core of the kernels.

The legacy samplers allocated four O(n) arrays (``distances``/``sigma`` per
search side) for *every* path sample, so on a 1M-vertex graph each of the
millions of samples paid ~32 MB of allocator traffic before touching a single
edge.  :class:`ScratchPool` removes that cost with two classic tricks:

* **Generation-stamped marks.**  Instead of refilling a distance array with
  ``-1`` between samples, every sample gets a fresh *generation* ``g`` and a
  vertex ``v`` is considered visited iff ``mark[v] >= g * span``.  The mark
  fuses the visited bit and the BFS level into one int64 read:
  ``mark[v] = g * span + dist(v)`` with ``span = n + 2`` (levels are < n + 1).
  Bumping an integer replaces an O(n) ``fill`` per sample; the arrays are
  re-zeroed only when the tag would overflow int64 — once every ~2^62/span
  samples, i.e. never in practice.
* **Buffer reuse.**  The mark and sigma arrays live as long as the pool, so
  steady-state sampling performs zero O(n) heap allocations per sample (the
  property the allocation-counting regression test pins down).

The module also holds the two steps every traversal in the repository is made
of: reading the adjacency rows of a frontier (:func:`row_extents` says where
they lie and how many entries they hold, :func:`gather_rows` reads them;
:func:`gather_csr` is both, for a traversal that scans every frontier it
settles, where the bidirectional kernel scans only the one it expands) and
:func:`settle_level`, the one sigma-BFS level step.

One pool serves one worker (thread) at a time — pools are cheap (6 arrays),
so drivers create one per sampling thread instead of sharing.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "ScratchPool",
    "ScratchSlab",
    "csr_views",
    "row_extents",
    "gather_rows",
    "gather_csr",
    "settle_level",
]

#: Re-zero the mark arrays once ``generation * span`` approaches int64 range.
_RESET_LIMIT = 2**62


class ScratchPool:
    """Reusable search buffers for one sampling worker.

    Attributes
    ----------
    mark_a, mark_b:
        Generation-stamped distance marks for the two search sides (the
        unidirectional kernels and Brandes use only side ``a``).
    sigma_a, sigma_b:
        Shortest-path counts per side; valid only for vertices whose mark
        carries the current generation.  Brandes reuses ``sigma_b`` as its
        dependency accumulator.
    compiled:
        The :class:`~repro.kernels.compiled.CompiledSearch` working on these
        arrays, set by :func:`~repro.kernels.compiled.search_on` on its first
        call; ``None`` until then.
    """

    __slots__ = (
        "num_vertices",
        "span",
        "mark_a",
        "mark_b",
        "sigma_a",
        "sigma_b",
        "compiled",
        "_py_state",
        "_generation",
        "generations_started",
    )

    def __init__(self, num_vertices: int) -> None:
        n = int(num_vertices)
        if n < 0:
            raise ValueError("num_vertices must be non-negative")
        self.num_vertices = n
        self.span = n + 2
        self.mark_a = np.zeros(n, dtype=np.int64)
        self.mark_b = np.zeros(n, dtype=np.int64)
        self.sigma_a = np.zeros(n, dtype=np.float64)
        self.sigma_b = np.zeros(n, dtype=np.float64)
        self.compiled = None
        self._py_state = None
        self._generation = 0
        self.generations_started = 0

    def python_state(self):
        """Python-list mirror of the scratch state, for the small-graph kernel.

        Returns ``(mark_a, mark_b, sigma_a, sigma_b)`` as plain lists,
        created lazily on first use.  The lists share the pool's generation
        counter with the ndarray state: both representations only ever hold
        marks from past generations, so a pool may serve either kernel (the
        two views are never required to agree, only to stay below the current
        generation's base).
        """
        if self._py_state is None:
            n = self.num_vertices
            self._py_state = ([0] * n, [0] * n, [0.0] * n, [0.0] * n)
        return self._py_state

    @property
    def generation(self) -> int:
        """The current sample generation (0 before the first sample)."""
        return self._generation

    def begin_sample(self) -> int:
        """Start a new sample; returns its mark base ``generation * span``.

        A vertex is visited in the current sample iff its mark is ``>= base``;
        its BFS level is then ``mark[v] - base``.
        """
        gen = self._generation + 1
        if gen * self.span >= _RESET_LIMIT:  # once every ~2^62 / span samples
            self.mark_a.fill(0)
            self.mark_b.fill(0)
            if self._py_state is not None:
                n = self.num_vertices
                self._py_state[0][:] = [0] * n
                self._py_state[1][:] = [0] * n
            gen = 1
        self._generation = gen
        self.generations_started += 1
        return gen * self.span

    def begin_samples(self, count: int) -> Tuple[int, int]:
        """Start up to ``count`` samples at once, for a search that loops in C.

        Returns ``(base, started)``: sample ``i < started`` has the mark base
        ``base + i * span``.  ``started`` is below ``count`` only where the
        next base would cross the reset limit; the caller comes back for the
        rest, and :meth:`begin_sample` wipes the marks then.
        """
        base = self.begin_sample()
        extra = min(count - 1, (_RESET_LIMIT - 1 - base) // self.span)
        self._generation += extra
        self.generations_started += extra
        return base, 1 + extra


class ScratchSlab:
    """Widened scratch: one mark/sigma slab serving ``lanes`` concurrent pairs.

    The multi-pair wavefront kernel advances the balanced bidirectional
    searches of up to ``lanes`` vertex pairs simultaneously.  Each pair (a
    *lane*) owns two rows of the slab — row ``lane`` for the forward side and
    row ``lanes + lane`` for the backward side — so a flat index
    ``row * num_vertices + vertex`` addresses any (pair, side, vertex) mark or
    sigma cell with one gather/scatter, which is what lets one numpy call per
    BFS level serve the whole batch.

    Generation stamping works exactly as in :class:`ScratchPool`, except the
    generation is bumped once per *round* (one ``begin_round`` covers every
    lane): a cell is visited in the current round iff its mark is
    ``>= base``, and its BFS level is ``mark - base``.
    """

    __slots__ = (
        "num_vertices",
        "lanes",
        "span",
        "mark",
        "sigma",
        "mark_flat",
        "sigma_flat",
        "_generation",
        "rounds_started",
    )

    def __init__(self, num_vertices: int, lanes: int) -> None:
        n = int(num_vertices)
        k = int(lanes)
        if n < 0:
            raise ValueError("num_vertices must be non-negative")
        if k <= 0:
            raise ValueError("lanes must be positive")
        self.num_vertices = n
        self.lanes = k
        self.span = n + 2
        self.mark = np.zeros((2 * k, n), dtype=np.int64)
        self.sigma = np.zeros((2 * k, n), dtype=np.float64)
        self.mark_flat = self.mark.reshape(-1)
        self.sigma_flat = self.sigma.reshape(-1)
        self._generation = 0
        self.rounds_started = 0

    @property
    def generation(self) -> int:
        return self._generation

    def begin_round(self) -> int:
        """Start a new multi-pair round; returns the shared mark base."""
        gen = self._generation + 1
        if gen * self.span >= _RESET_LIMIT:  # pragma: no cover - ~2^62 rounds
            self.mark_flat.fill(0)
            gen = 1
        self._generation = gen
        self.rounds_started += 1
        return gen * self.span


_EMPTY_IDX = np.empty(0, dtype=np.int64)


def csr_views(graph):
    """``(indptr, indptr_hi, indices)`` of ``graph`` as base ndarrays.

    ``indptr_hi`` is the ``indptr[1:]`` view (row ends).  Take the views once
    per traversal or sampler: no BFS level then pays
    ``np.memmap.__getitem__`` on a memory-mapped graph.
    """
    indptr = np.asarray(graph.indptr)
    return indptr, indptr[1:], np.asarray(graph.indices)


def row_extents(indptr: np.ndarray, indptr_hi: np.ndarray, frontier: np.ndarray):
    """Where the adjacency rows of ``frontier`` lie, without reading them.

    Returns ``(starts, degs, ends)``: row starts and lengths in ``indices``
    and the running length sum, so ``ends[-1]`` is the number of entries a
    scan of the frontier would read - the *volume* the balanced bidirectional
    search compares before it decides which side to scan.  Costs O(frontier),
    whatever the degrees; ``frontier`` must not be empty.
    """
    starts = indptr[frontier]
    degs = indptr_hi[frontier] - starts
    return starts, degs, degs.cumsum()


def gather_rows(indices: np.ndarray, starts: np.ndarray, degs: np.ndarray, ends: np.ndarray):
    """The adjacency rows :func:`row_extents` located, back to back.

    ``neighbors`` lists the rows in frontier order (exactly the order a
    per-vertex slice loop produces).  Fully vectorized, and a plain slice for
    the common single-vertex frontier.  The result is int64 whatever the
    graph stores: every level indexes with it several times, and numpy casts
    any other index dtype on each use.
    """
    total = int(ends[-1])
    if total == 0:
        return _EMPTY_IDX
    if starts.size == 1:
        start = int(starts[0])
        return indices[start : start + total].astype(np.int64)
    # Global positions: for the j-th slot of vertex i the position is
    # starts[i] + (j - ends_before[i]) where ends_before is the exclusive
    # cumulative degree sum.
    idx = np.arange(total, dtype=np.int64)
    idx += (starts - (ends - degs)).repeat(degs)
    return indices[idx].astype(np.int64, copy=False)


def gather_csr(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray, indptr_hi=None):
    """Concatenated adjacency rows of ``frontier``, in frontier order.

    Returns ``(neighbors, degs)``: :func:`row_extents` then
    :func:`gather_rows`, for a traversal that scans every frontier it settles.
    ``indptr_hi`` is the ``indptr[1:]`` view of :func:`csr_views`, for callers
    that hold one.
    """
    if frontier.size == 0:
        return _EMPTY_IDX, _EMPTY_IDX
    starts, degs, ends = row_extents(
        indptr, indptr[1:] if indptr_hi is None else indptr_hi, frontier
    )
    return gather_rows(indices, starts, degs, ends), degs


def settle_level(frontier, neighbors, degs, mark, base, stamp, sigma=None):
    """Settle one BFS level: the one copy of the sigma-BFS level step.

    ``neighbors, degs = gather_csr(..., frontier)`` (int64); a vertex is
    unvisited iff ``mark[v] < base``.  Stamps every unvisited neighbour with
    ``stamp`` and returns them as ``fresh`` - sorted and duplicate-free.  With
    ``sigma`` given, ``sigma[v]`` of every fresh ``v`` becomes the sum of
    ``sigma[u]`` over its edges from the frontier, added in ``neighbors``
    order (the order ``np.add.at`` has always used, so sums are bit-equal).

    A neighbour lies on the new level iff it was unvisited before the level
    was processed, so one freshness mask selects both the new vertices and
    the sigma scatter.
    """
    fresh_mask = mark[neighbors] < base
    reached = neighbors[fresh_mask]
    if reached.size == 0:
        return _EMPTY_IDX
    if frontier.size == 1:
        # One CSR row: already sorted and duplicate-free.
        mark[reached] = stamp
        if sigma is not None:
            sigma[reached] = sigma[frontier[0]]
        return reached
    # Sort, then drop repeats: several times faster than ``np.unique``.
    found = np.sort(reached)
    first = np.empty(found.size, dtype=bool)
    first[0] = True
    np.not_equal(found[1:], found[:-1], out=first[1:])
    fresh = found[first]
    mark[fresh] = stamp
    if sigma is not None:
        contrib = sigma[frontier].repeat(degs)[fresh_mask]
        if fresh.size == reached.size:
            # No vertex reached twice: a plain store is the whole sum.
            sigma[reached] = contrib
        else:
            sigma[fresh] = 0.0
            np.add.at(sigma, reached, contrib)
    return fresh
