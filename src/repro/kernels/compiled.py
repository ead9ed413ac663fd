"""The ``bidirectional`` kernel's search and the whole-graph BFS sweeps, compiled.

``_bidirectional.c`` (beside this file) is the scan-on-expand search of
:mod:`repro.kernels.smallgraph` plus the cut pick and both backward walks of
:mod:`repro.kernels.bidirectional`, written so that every candidate set is
enumerated in the same order and every sum is added in the same order as the
numpy kernel: for one generator state the two return the same
``(connected, length, internal_vertices, edges_touched)`` and leave the
generator in the same state.  It is not a kernel of its own - the
``bidirectional`` spec hands out :func:`compiled_sample` when :func:`load`
succeeds and the graph's arrays qualify (:func:`usable`), and the numpy search
otherwise.  The same file holds the level-synchronous whole-graph BFS under
:func:`repro.graph.traversal.bfs_distances` and
:func:`repro.graph.components.connected_components` (:class:`Sweep`), used
under the same condition and with the numpy level loop as the only other path.

*Build.*  On first use the source is compiled with ``$CC`` (default ``cc``)
and ``-O2 -fPIC -shared -ffp-contract=off`` into
``${XDG_CACHE_HOME:-~/.cache}/repro/<sha256 of source and command>.so``: a
directory only this user can write to, a temporary file renamed into place (two
processes building at once both end with a loadable file), and a file owned by
somebody else is refused.  A process that forks workers calls :func:`load`
first, so that they inherit the library instead of each looking for it.

*Self-check.*  The C side re-implements numpy's pairwise ``sum`` and
:func:`~repro.kernels.weighted.weighted_index`; a loaded library is used only
after both equal numpy bit for bit on a fixed battery, a small-graph search
equals :func:`~repro.kernels.bidirectional.bidirectional_sample` and a sweep
from every vertex of the same graph equals the numpy level loop.  No
compiler, an unusable cache directory or a failed check each leave the numpy
search and the numpy sweeps in place; :func:`describe` says which run and why.

*What crosses the boundary.*  Pointers into arrays this module validated or
allocated, never a Python object: the CSR arrays
(:func:`repro.graph.csr.validate_csr` has run, in
:class:`~repro.kernels.batch.BatchPathSampler`), the pool's mark and sigma
arrays, and the buffers of :class:`CompiledSearch`.  A sweep runs before any
sampler exists, possibly on a mapped file nobody has read yet, so the C loop
itself checks every row extent and neighbour id it is about to index with and
:class:`Sweep` turns its refusal into :class:`ValueError`.  ``ctypes`` releases
the GIL for the call.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.kernels.scratch import ScratchPool
from repro.kernels.weighted import weighted_index

__all__ = ["load", "describe", "usable", "compiled_sample", "CompiledSearch", "Sweep"]

_SOURCE = Path(__file__).with_name("_bidirectional.c")
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# Status codes of repro_search / repro_finish.
_PATH, _ADJACENT, _DISCONNECTED, _GROW, _BROKEN_LEVEL, _NO_PREDECESSOR = range(6)
# What repro_sweep returns in place of a level count.
_SWEEP_REFUSALS = {-1: "a row extent outside indices", -2: "an out-of-range vertex id"}
#: A cut edge travels as ``u * n + v`` in an int64.
_MAX_VERTICES = 2**31
_INDEX_DTYPES = (np.dtype(np.uint32), np.dtype(np.int64))


class _Unavailable(Exception):
    """Why the compiled search cannot be used in this process."""


class _State(ctypes.Structure):
    """``State`` of ``_bidirectional.c``, field for field."""

    _fields_ = [
        ("n", ctypes.c_int64),
        ("indptr", ctypes.c_void_p),
        ("indices", ctypes.c_void_p),
        ("wide", ctypes.c_int64),
        ("mark", ctypes.c_void_p * 2),
        ("sigma", ctypes.c_void_p * 2),
        ("buf", ctypes.c_void_p * 4),
        ("capacity", ctypes.c_int64),
        ("keys", ctypes.c_void_p),
        ("scratch", ctypes.c_void_p),
        ("weights", ctypes.c_void_p),
        ("uniforms", ctypes.c_void_p),
        ("path", ctypes.c_void_p),
        ("out", ctypes.c_void_p),
    ]


# --------------------------------------------------------------------------- #
# Build and load
# --------------------------------------------------------------------------- #

def _build() -> Path:
    """The shared object for this source and compiler command, built if absent."""
    command = shlex.split(os.environ.get("CC") or "cc") + list(_FLAGS)
    directory = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "repro"
    try:
        source = _SOURCE.read_bytes()
        digest = hashlib.sha256(source + "\0".join(command).encode()).hexdigest()
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        status = directory.stat()
        if status.st_uid != os.getuid() or status.st_mode & 0o022:
            raise _Unavailable(f"cache directory {directory} is writable by other users")
        target = directory / f"{digest}.so"
        if not target.exists():
            handle, scratch = tempfile.mkstemp(dir=directory, suffix=".tmp")
            os.close(handle)
            try:
                done = subprocess.run(
                    [*command, "-x", "c", "-", "-o", scratch],
                    input=source,
                    capture_output=True,
                    timeout=120,
                )
                if done.returncode != 0:
                    detail = done.stderr.decode(errors="replace").strip().splitlines()
                    raise _Unavailable(
                        f"C compiler {command[0]!r} failed" + (f": {detail[-1]}" if detail else "")
                    )
                os.replace(scratch, target)
            finally:
                if os.path.exists(scratch):
                    os.unlink(scratch)
        if target.stat().st_uid != os.getuid():
            raise _Unavailable(f"{target} is owned by another user")
    except subprocess.TimeoutExpired:
        raise _Unavailable(f"C compiler {command[0]!r} timed out") from None
    except OSError as exc:
        raise _Unavailable(f"no C compiler or unusable cache {directory}: {exc}") from None
    return target


def _bind(path: Path) -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise _Unavailable(f"cannot load {path}: {exc}") from None
    lib.repro_search.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64]
    lib.repro_search.restype = ctypes.c_int
    lib.repro_finish.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    lib.repro_finish.restype = ctypes.c_int
    lib.repro_pairwise_sum.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    lib.repro_pairwise_sum.restype = ctypes.c_double
    lib.repro_weighted_index.argtypes = [
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_double,
        ctypes.c_double,
    ]
    lib.repro_weighted_index.restype = ctypes.c_int64
    lib.repro_sweep.argtypes = [
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # indptr
        ctypes.c_void_p,  # indices
        ctypes.c_int64,  # wide
        ctypes.c_int64,  # len(indices)
        ctypes.c_int64,  # source
        ctypes.c_void_p,  # mark
        ctypes.c_int64,  # stamp
        ctypes.c_int64,  # step
        ctypes.c_void_p,  # order
        ctypes.c_void_p,  # scratch
        ctypes.c_void_p,  # offsets
    ]
    lib.repro_sweep.restype = ctypes.c_int64
    return lib


@functools.lru_cache(maxsize=None)
def load() -> Tuple[Optional[ctypes.CDLL], str]:
    """``(library, its path)``, or ``(None, why the numpy search stays)``.

    Builds on first use, checks the library against numpy, and remembers the
    answer for the life of the process (and of every process forked from it).
    """
    try:
        path = _build()
        lib = _bind(path)
        _self_check(lib)
    except _Unavailable as exc:
        return None, str(exc)
    return lib, str(path)


def describe() -> str:
    """The line ``--list-kernels`` and ``info`` end with: what runs the search and the sweeps."""
    lib, detail = load()
    return f"bidirectional search and BFS sweeps: {'compiled' if lib is not None else 'numpy'} ({detail})"


def usable(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether :func:`compiled_sample` and :class:`Sweep` can run on these CSR arrays."""
    return (
        indptr.dtype == np.int64
        and indices.dtype in _INDEX_DTYPES
        and indptr.flags.c_contiguous
        and indices.flags.c_contiguous
        and indptr.flags.aligned
        and indices.flags.aligned
        and indptr.size - 1 <= _MAX_VERTICES
        and load()[0] is not None
    )


# --------------------------------------------------------------------------- #
# Self-check
# --------------------------------------------------------------------------- #

class _FixedUniform:
    """Stands in for a generator whose next draw is known."""

    def __init__(self, value: float) -> None:
        self._value = value

    def random(self) -> float:
        return self._value


def _check_graph(dtype) -> Tuple[np.ndarray, np.ndarray]:
    """A 5 x 6 grid with two chords, a separate edge and an isolated vertex."""
    from repro.graph.csr import CSRGraph

    cell = np.arange(30).reshape(5, 6)
    across = np.stack([cell[:, :-1].ravel(), cell[:, 1:].ravel()], axis=1)
    down = np.stack([cell[:-1].ravel(), cell[1:].ravel()], axis=1)
    edges = np.concatenate([across, down, [[0, 14], [9, 28], [30, 31]]])
    graph = CSRGraph.from_edges(edges, num_vertices=33)
    return np.asarray(graph.indptr), np.asarray(graph.indices).astype(dtype)


def _self_check(lib: ctypes.CDLL) -> None:
    """Raise :class:`_Unavailable` unless ``lib`` computes what numpy computes."""
    rng = np.random.default_rng(20200518)
    for size in (*range(1, 301), 513, 4097):
        for bits in (8, 60):
            weights = np.floor(rng.random(size) * 2.0 ** rng.integers(0, bits + 1, size)) + 1.0
            total = weights.sum()
            if lib.repro_pairwise_sum(weights.ctypes.data, size) != total:
                raise _Unavailable(f"self-check: sum of {size} weights differs from numpy's")
            uniform = float(rng.random())
            expected = weighted_index(weights, total, _FixedUniform(uniform))
            if lib.repro_weighted_index(weights.ctypes.data, size, total, uniform) != expected:
                raise _Unavailable(f"self-check: weighted pick among {size} differs from numpy's")

    from repro.kernels.bidirectional import bidirectional_sample

    for dtype in _INDEX_DTYPES:
        indptr, indices = _check_graph(dtype)
        n = indptr.size - 1
        pool, theirs = ScratchPool(n), ScratchPool(n)
        ours = CompiledSearch(lib, indptr, indices, pool)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        for source, target in np.random.default_rng(11).integers(0, n, (24, 2)).tolist():
            if source != target and ours.sample(pool, source, target, rng_a) != bidirectional_sample(
                indptr, indices, theirs, source, target, rng_b
            ):
                raise _Unavailable(f"self-check: search {source}-{target} differs from numpy's")
        if rng_a.random() != rng_b.random():
            raise _Unavailable("self-check: the searches leave the generator in different states")
        _check_sweeps(lib, indptr, indices)


def _check_sweeps(lib: ctypes.CDLL, indptr: np.ndarray, indices: np.ndarray) -> None:
    """Distances from every vertex, then one id per component, against numpy."""
    from repro.graph.traversal import numpy_sweep

    n = indptr.size - 1
    ours, csr = Sweep(lib, indptr, indices), (indptr, indptr[1:], indices)
    labels_a, labels_b = np.full(n, -1, dtype=np.int64), np.full(n, -1, dtype=np.int64)
    for source in range(n):
        runs = [(np.full(n, -1, dtype=np.int64), np.full(n, -1, dtype=np.int64), 0, 1)]
        if labels_a[source] < 0:
            runs.append((labels_a, labels_b, source, 0))
        for marks_a, marks_b, stamp, step in runs:
            levels_a = ours(marks_a, source, stamp, step)
            levels_b = numpy_sweep(csr, marks_b, source, stamp, step)
            if not (
                np.array_equal(marks_a, marks_b)
                and len(levels_a) == len(levels_b)
                and all(np.array_equal(a, b) for a, b in zip(levels_a, levels_b))
            ):
                raise _Unavailable(f"self-check: sweep from {source} differs from numpy's")


# --------------------------------------------------------------------------- #
# Per-sampler state and the per-pair entry point
# --------------------------------------------------------------------------- #

class CompiledSearch:
    """One sampler's compiled search: the C ``State`` and every buffer it names.

    Holds a reference to each array whose address the C side keeps - the CSR
    arrays, the pool's mark and sigma arrays and the buffers allocated here -
    for as long as the search can run, but none to the pool itself: the pool
    refers to this object, and a cycle would leave both, a few arrays of
    ``n`` entries each, to the cyclic collector.
    """

    def __init__(
        self, lib: ctypes.CDLL, indptr: np.ndarray, indices: np.ndarray, pool: ScratchPool
    ) -> None:
        n = indptr.size - 1
        if pool.num_vertices != n:
            raise ValueError("scratch pool size does not match the graph")
        self.indptr, self.indices, self._n = indptr, indices, n
        self._pool_arrays = (pool.mark_a, pool.mark_b, pool.sigma_a, pool.sigma_b)
        self._search, self._finish = lib.repro_search, lib.repro_finish
        self._buffers = [np.empty(n, dtype=np.int64) for _ in range(4)]
        self._out = np.zeros(4, dtype=np.int64)
        state = self._state = _State()
        state.n = n
        state.indptr = indptr.ctypes.data
        state.indices = indices.ctypes.data
        state.wide = int(indices.dtype == np.int64)
        state.mark[0], state.mark[1] = pool.mark_a.ctypes.data, pool.mark_b.ctypes.data
        state.sigma[0], state.sigma[1] = pool.sigma_a.ctypes.data, pool.sigma_b.ctypes.data
        for slot, buffer in enumerate(self._buffers):
            state.buf[slot] = buffer.ctypes.data
        state.out = self._out.ctypes.data
        self._address = ctypes.addressof(state)
        # A backward step weighs at most one row's worth of predecessors; the
        # cut buffers grow on demand.
        self._reserve_cut(max(64, int(np.diff(indptr).max())))
        self._reserve_path(256)

    def _reserve_cut(self, capacity: int) -> None:
        state = self._state
        self._keys = np.empty(capacity, dtype=np.int64)
        self._scratch = np.empty(capacity, dtype=np.int64)
        self._weights = np.empty(capacity, dtype=np.float64)
        state.capacity = capacity
        state.keys = self._keys.ctypes.data
        state.scratch = self._scratch.ctypes.data
        state.weights = self._weights.ctypes.data

    def _reserve_path(self, capacity: int) -> None:
        self._path = np.empty(capacity, dtype=np.int64)
        self._uniforms = np.empty(capacity + 1, dtype=np.float64)
        self._state.path = self._path.ctypes.data
        self._state.uniforms = self._uniforms.ctypes.data

    def sample(
        self, pool: ScratchPool, source: int, target: int, rng: np.random.Generator
    ) -> Tuple[bool, int, List[int], int]:
        """Same contract as :func:`~repro.kernels.bidirectional.bidirectional_sample`.

        ``pool`` is the pool this search was built on.
        """
        if not (0 <= source < self._n and 0 <= target < self._n and source != target):
            raise ValueError("source and target must be distinct vertices of the graph")
        while True:
            base = pool.begin_sample()
            status = self._search(self._address, base, source, target)
            if status != _GROW:
                break
            # More cut edges than fit: nothing was drawn yet, so the same
            # search simply runs again, on a new generation of marks.
            self._reserve_cut(2 * int(self._out[3]))
        level_s, level_t, edges_touched, _ = self._out.tolist()
        if status == _ADJACENT:
            return True, 1, [], edges_touched
        if status == _DISCONNECTED:
            return False, 0, [], edges_touched
        if status == _BROKEN_LEVEL:
            raise AssertionError("a cut edge ends above the other search's deepest level")
        count = level_s + level_t
        if count > self._path.size:
            self._reserve_path(2 * count)
        # One draw for the cut edge and one per backward step, taken as a
        # block: the same doubles, in the same order, as scalar draws.
        rng.random(out=self._uniforms[: 1 + max(level_s - 1, 0) + max(level_t - 1, 0)])
        if self._finish(self._address, base) != _PATH:
            raise RuntimeError("inconsistent sigma values during backtracking")
        return True, count + 1, self._path[:count].tolist(), edges_touched


def compiled_sample(
    indptr: np.ndarray,
    indices: np.ndarray,
    pool: ScratchPool,
    source: int,
    target: int,
    rng: np.random.Generator,
) -> Tuple[bool, int, List[int], int]:
    """:func:`~repro.kernels.bidirectional.bidirectional_sample`, compiled.

    The :class:`CompiledSearch` for ``(indptr, indices)`` hangs off ``pool``,
    created on the first call; :func:`usable` must hold for the arrays.
    """
    state = pool.compiled
    if state is None or state.indices is not indices or state.indptr is not indptr:
        state = pool.compiled = CompiledSearch(load()[0], indptr, indices, pool)
    return state.sample(pool, source, target, rng)


# --------------------------------------------------------------------------- #
# Whole-graph BFS
# --------------------------------------------------------------------------- #

class Sweep:
    """Whole-graph BFS over one graph's CSR arrays: ``repro_sweep`` and its buffers.

    One object serves one caller at a time (a traversal creates its own; the
    component labelling reuses one for all its searches, so that a component
    costs its own vertices and not an ``n``-sized allocation).
    :func:`usable` must hold for the arrays.
    """

    def __init__(self, lib: ctypes.CDLL, indptr: np.ndarray, indices: np.ndarray) -> None:
        n = self._n = indptr.size - 1
        self._csr = (indptr, indices)  # the addresses below stay valid
        # One allocation: order (n + 1 entries), sort scratch (n), level offsets (n + 1).
        work = self._work = np.empty(3 * n + 2, dtype=np.int64)
        self._order, self._offsets = work[:n], work[2 * n + 1 :]
        self._call = functools.partial(
            lib.repro_sweep,
            n,
            indptr.ctypes.data,
            indices.ctypes.data,
            int(indices.dtype == np.int64),
            indices.size,
        )
        self._buffers = (work.ctypes.data, work[n + 1 :].ctypes.data, self._offsets.ctypes.data)

    def __call__(self, marks: np.ndarray, source: int, stamp: int, step: int) -> List[np.ndarray]:
        """Stamp everything reachable from ``source`` into ``marks``; return the levels.

        A vertex is unvisited iff its mark is negative; level ``k`` is stamped
        ``stamp + k * step`` (``0, 1`` writes hop distances, ``step=0`` one
        component id).  The levels are ``int64`` arrays in increasing id order,
        level 0 being ``[source]``, cut from one new array: nothing returned
        refers to this object's buffers.  A row extent outside
        ``indices`` or a neighbour id outside the graph raises
        :class:`ValueError`, with ``marks`` partly stamped.
        """
        if not (0 <= source < self._n and stamp >= 0 and step >= 0):
            raise ValueError("source must be a vertex of the graph, stamp and step non-negative")
        flags = marks.flags
        if marks.dtype != np.int64 or marks.shape != (self._n,) or not (flags.c_contiguous and flags.writeable):
            raise ValueError("marks must be a writable contiguous int64 array with one entry per vertex")
        levels = self._call(int(source), marks.ctypes.data, stamp, step, *self._buffers)
        if levels < 0:
            raise ValueError(
                f"malformed CSR arrays: the search from {source} met {_SWEEP_REFUSALS[levels]}"
            )
        bounds = self._offsets[: levels + 1].tolist()
        reached = self._order[: bounds[-1]].copy()
        return [reached[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
