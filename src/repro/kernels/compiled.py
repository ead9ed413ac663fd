"""The ``bidirectional`` kernel's sampling loop and the whole-graph BFS sweeps, compiled.

``_bidirectional.c`` (beside this file) is the scan-on-expand search of
:mod:`repro.kernels.smallgraph` plus the cut pick and both backward walks of
:mod:`repro.kernels.bidirectional`, written so that every candidate set is
enumerated in the same order and every sum comes out bit for bit as the
numpy kernel's, inside a loop over the samples of a batch: one call draws each
pair, searches, draws the path's uniforms, walks back and appends to the flat
arrays of a :class:`~repro.kernels.batch.SampleBatch`
(:meth:`CompiledSearch.sample_batch`).  For one generator state the batch is
what that many calls of the numpy kernel return, and the generator is left in
the same state.  It is not a kernel of its own - a
:class:`~repro.kernels.batch.BatchPathSampler` running the ``bidirectional``
kernel decides at construction to draw its batches here when :func:`load`
succeeds and the graph's arrays qualify (:func:`usable`), and with the numpy
search otherwise.  The same file holds the direction-optimizing whole-graph
BFS under :func:`repro.graph.traversal.bfs_distances` and
:func:`repro.graph.components.connected_components` (:class:`Sweep`), used
under the same condition and with the numpy level loop as the only other path.

*Level order.*  The numpy search sorts every level it settles; the C search
keeps a level in the order its scan found it, and sorts the cut edges once.
The order of a level only decides the order in which each vertex's ``sigma``
(its path count) is summed, and that cannot change a bit while the counts are
exact integers: a sum of non-negative integers is exact while every partial
sum stays below 2^53, and a partial sum of 2^53 or more rounds to a final
value of 2^53 or more, so a level whose largest ``sigma`` is below 2^53 holds
the exact sums - numpy's.  The first level of a side to reach 2^53 is summed
again with its parents sorted, and that side's levels are sorted for the rest
of the sample, as numpy's are.  Both hold for CSR rows in increasing order,
which the adjacent-endpoints search and
:func:`~repro.kernels.scratch.settle_level`'s one-row case assume as well.

*Random numbers.*  The loop draws from the caller's generator: numpy publishes
a bit generator's state address and its ``next_uint32`` / ``next_double``
functions (``rng.bit_generator.ctypes``), so every BitGenerator - and the
32-bit half a PCG64 keeps between calls - is numpy's code.  What is
re-implemented is the bounded draw of ``Generator.integers`` for one value
below 2^32 (Lemire's multiply-and-reject).  ``rng.bit_generator.lock`` is held
for the call, as numpy's own methods hold it: the GIL is released for the
whole batch, and two threads sharing one generator take whole batches in turn.
An ``rng`` that is not a :class:`numpy.random.Generator` has no such functions
and goes to the numpy search, pair by pair.

*Build.*  On first use the source is compiled with ``$CC`` (default ``cc``)
and ``-O2 -fPIC -shared -ffp-contract=off`` into
``${XDG_CACHE_HOME:-~/.cache}/repro/<sha256 of source and command>.so``: a
directory only this user can write to, a temporary file renamed into place (two
processes building at once both end with a loadable file), and a file owned by
somebody else is refused.  A process that forks workers calls :func:`load`
first, so that they inherit the library instead of each looking for it.

*Self-check.*  The C side re-implements numpy's pairwise ``sum``,
:func:`~repro.kernels.weighted.weighted_index` and the bounded draw; a loaded
library is used only after (a) the first two equal numpy bit for bit on a fixed
battery, (b) the bounded draw equals ``rng.integers(0, n)`` for a battery of
``n`` on every BitGenerator numpy ships, with and without a buffered 32-bit
half, (c) on a layered graph whose path counts reach about 1e21, one search
leaves every settled level's marks and ``sigma`` equal to numpy's (a library
whose fallback past 2^53 is missing or wrong fails here), (d) a sweep from
every vertex of a small graph, top-down and bottom-up levels both, equals the
numpy level loop and (e) a batch on that graph equals
:func:`~repro.sampling.base.sample_vertex_pair` and
:func:`~repro.kernels.bidirectional.bidirectional_sample` pair by pair,
generator state included.  No compiler, an unusable cache directory or a
failed check each leave the numpy search and the numpy sweeps in place;
:func:`describe` says which run and why.

*What crosses the boundary.*  Pointers into arrays this module validated or
allocated, never a Python object: the CSR arrays
(:func:`repro.graph.csr.validate_csr` has run, in
:class:`~repro.kernels.batch.BatchPathSampler`), the pool's mark and sigma
arrays, the buffers of :class:`CompiledSearch`, the batch's output arrays and
numpy's ``bitgen_t``.  Given pairs are checked by the loop itself before it
indexes with them.  A sweep runs before any sampler exists, possibly on a
mapped file nobody has read yet, so the C loop itself checks every row extent
and neighbour id it is about to index with and :class:`Sweep` turns its
refusal into :class:`ValueError`.  ``ctypes`` releases the GIL for the call.
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

from repro.kernels.bidirectional import bidirectional_sample
from repro.kernels.scratch import ScratchPool
from repro.kernels.weighted import weighted_index

__all__ = [
    "load",
    "describe",
    "usable",
    "search_on",
    "CompiledSearch",
    "Sweep",
]

_SOURCE = Path(__file__).with_name("_bidirectional.c")
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# What stops repro_sample_batch before the end of a batch (``out[4]``).
_GROW, _BROKEN_LEVEL, _NO_PREDECESSOR, _BAD_PAIR = range(3, 7)
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
        ("contrib_capacity", ctypes.c_int64),
        ("contrib", ctypes.c_void_p),
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
    lib.repro_sample_batch.argtypes = [
        ctypes.c_void_p,  # State
        ctypes.c_void_p,  # numpy's bitgen_t
        ctypes.c_int64,  # first
        ctypes.c_int64,  # stop
        ctypes.c_int64,  # given
        ctypes.c_int64,  # base
        ctypes.c_int64,  # span
        ctypes.c_void_p,  # block: four arrays of k entries, then contrib_indptr (k + 1)
        ctypes.c_int64,  # k
    ]
    lib.repro_sample_batch.restype = ctypes.c_int64
    lib.repro_bounded.argtypes = [ctypes.c_void_p, ctypes.c_uint32]
    lib.repro_bounded.restype = ctypes.c_int64
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
    """Whether :class:`CompiledSearch` and :class:`Sweep` can run on these CSR arrays."""
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


def _layered_graph(dtype, layers: int = 60) -> Tuple[np.ndarray, np.ndarray]:
    """Vertex 0, ``layers`` layers of three vertices, vertex 1; the layers' ids shuffled.

    From ``{a, b, c}`` to the next layer ``{A, B, C}``: a-A, a-B, b-B, a-C, b-C,
    c-C and c-A.  A search from 0 to 1 settles almost every layer from 0's side, and
    its path counts pass 2^53 at the 45th layer (about 1e21 at the 60th), from
    where the order in which C's three parents are summed shows.
    """
    from repro.graph.csr import CSRGraph

    layer = (np.random.default_rng(29).permutation(3 * layers) + 2).reshape(layers, 3)
    (a, b, c), (up_a, up_b, up_c) = layer[:-1].T, layer[1:].T
    pairs = [(0, layer[0]), (layer[-1], 1)]
    pairs += [(a, up_a), (a, up_b), (b, up_b), (a, up_c), (b, up_c), (c, up_c), (c, up_a)]
    edges = np.concatenate([np.stack(np.broadcast_arrays(u, v), axis=1) for u, v in pairs])
    graph = CSRGraph.from_edges(edges, num_vertices=3 * layers + 2)
    return np.asarray(graph.indptr), np.asarray(graph.indices).astype(dtype)


def _check_path_counts(lib: ctypes.CDLL, indptr: np.ndarray, indices: np.ndarray) -> None:
    """One search from 0 to 1: each side's settled marks and sigma against numpy's."""
    n = indptr.size - 1
    pool, theirs = ScratchPool(n), ScratchPool(n)
    CompiledSearch(lib, indptr, indices, pool).sample_batch(
        pool, np.random.default_rng(0), 1, [0], [1]
    )
    bidirectional_sample(indptr, indices, theirs, 0, 1, np.random.default_rng(0))
    base = theirs.generation * theirs.span
    for side in "ab":
        settled = getattr(theirs, f"mark_{side}") >= base
        for name in (f"mark_{side}", f"sigma_{side}"):
            if not np.array_equal(getattr(pool, name)[settled], getattr(theirs, name)[settled]):
                raise _Unavailable("self-check: path counts past 2^53 differ from numpy's")


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

    _check_bounded(lib)

    from repro.sampling.base import sample_vertex_pair

    for dtype in _INDEX_DTYPES:
        _check_path_counts(lib, *_layered_graph(dtype))
        indptr, indices = _check_graph(dtype)
        _check_sweeps(lib, indptr, indices)
        n, count = indptr.size - 1, 24
        pool, theirs = ScratchPool(n), ScratchPool(n)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        batch = CompiledSearch(lib, indptr, indices, pool).sample_batch(pool, rng_a, count)
        sources, targets, connected, lengths, edges, contrib, offsets = (a.tolist() for a in batch)
        for i in range(count):
            pair = sample_vertex_pair(n, rng_b)
            expected = bidirectional_sample(indptr, indices, theirs, *pair, rng_b)
            path = contrib[offsets[i] : offsets[i + 1]]
            ours = (sources[i], targets[i], connected[i], lengths[i], path, edges[i])
            if (*pair, *expected) != ours:
                raise _Unavailable(f"self-check: sample {i} of a batch differs from numpy's")
        if not _same_state(rng_a, rng_b):
            raise _Unavailable("self-check: a batch leaves the generator in another state than numpy")


#: Two small ranges, powers of two and their neighbours, a bench graph's order,
#: a range that rejects every third draw, and the largest two a graph can have.
_BOUNDED_BATTERY = (2, 3, 2**8 - 1, 2**8 + 1, 2**16 - 1, 2**16, 2**16 + 1, 40_058, 1_431_655_766)
_BOUNDED_BATTERY += (2**31 - 1, 2**31)


def _same_state(rng_a: np.random.Generator, rng_b: np.random.Generator) -> bool:
    """Whether both draw the same from here on, a buffered 32-bit half included."""
    return rng_a.integers(0, 2**32, 3).tolist() == rng_b.integers(0, 2**32, 3).tolist()


def _check_bounded(lib: ctypes.CDLL) -> None:
    """The bounded draw against ``Generator.integers``, on every BitGenerator numpy ships."""
    for name in ("PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"):
        for pending in (False, True):
            ours, theirs = (np.random.Generator(getattr(np.random, name)(24)) for _ in range(2))
            if pending:  # one 32-bit draw: a generator that buffers the other half now holds it
                ours.integers(0, 2**32), theirs.integers(0, 2**32)
            bitgen = ours.bit_generator.ctypes.bit_generator
            for n in _BOUNDED_BATTERY:
                for _ in range(3):
                    if lib.repro_bounded(bitgen, n - 1) != theirs.integers(0, n):
                        raise _Unavailable(
                            f"self-check: bounded draw below {n} from {name} differs from numpy's"
                        )
            if not _same_state(ours, theirs):
                raise _Unavailable(
                    f"self-check: bounded draw leaves {name} in another state than numpy's"
                )


def _check_sweeps(lib: ctypes.CDLL, indptr: np.ndarray, indices: np.ndarray) -> None:
    """Distances from every vertex, then one id per component, against numpy.

    Both halves of the direction-optimizing sweep run here: on 33 vertices a
    frontier of two is large enough, so the distances from vertex 1 take
    level 0 top-down, levels 1-5 bottom-up and level 6 top-down again, and
    the labelling's first search (from vertex 0) levels 1-5 bottom-up.
    """
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
# Per-sampler state and the batch entry point
# --------------------------------------------------------------------------- #

class CompiledSearch:
    """One sampler's compiled sampling loop: the C ``State`` and every buffer it names.

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
        self.indptr, self.indices = indptr, indices
        self._pool_arrays = (pool.mark_a, pool.mark_b, pool.sigma_a, pool.sigma_b)
        self._batch = lib.repro_sample_batch
        self._buffers = [np.empty(n, dtype=np.int64) for _ in range(4)]
        self._out = np.zeros(6, dtype=np.int64)
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
        # cut buffers and the batch's path vertices grow on demand.
        self._reserve_cut(max(64, int(np.diff(indptr).max())))
        self._contrib = np.empty(0, dtype=np.int64)
        self._reserve_contrib(256)

    def _reserve_cut(self, capacity: int) -> None:
        state = self._state
        self._keys = np.empty(capacity, dtype=np.int64)
        self._scratch = np.empty(capacity, dtype=np.int64)
        self._weights = np.empty(capacity, dtype=np.float64)
        state.capacity = capacity
        state.keys = self._keys.ctypes.data
        state.scratch = self._scratch.ctypes.data
        state.weights = self._weights.ctypes.data

    def _reserve_contrib(self, capacity: int) -> None:
        contrib = np.empty(capacity, dtype=np.int64)
        contrib[: self._contrib.size] = self._contrib  # the batch in progress keeps its paths
        self._contrib = contrib
        self._state.contrib_capacity = capacity
        self._state.contrib = contrib.ctypes.data

    def sample_batch(
        self,
        pool: ScratchPool,
        rng: np.random.Generator,
        k: int,
        given_sources=None,
        given_targets=None,
    ) -> Tuple[np.ndarray, ...]:
        """``k`` samples: the arrays of a :class:`~repro.kernels.batch.SampleBatch`, in field order.

        ``pool`` is the pool this search was built on.  With ``given_sources``
        and ``given_targets`` (``k`` entries each) those pairs are sampled and
        only the paths' uniforms are drawn; without, each pair is drawn right before
        its search, as :func:`~repro.sampling.base.sample_vertex_pair` draws
        it.  Either way the outcome and the state ``rng`` is left in are those
        of ``k`` calls of the numpy kernel, whatever ``k``.
        """
        # One allocation, what repro_sample_batch calls `block`.
        block = np.empty(5 * k + 1, dtype=np.int64)
        sources, targets, lengths, edges_touched = block[: 4 * k].reshape(4, k)
        offsets = block[4 * k :]
        offsets[0] = 0
        if given_sources is not None:
            sources[:], targets[:] = given_sources, given_targets
        given = 0 if given_sources is None else k
        bit_generator = rng.bit_generator
        with bit_generator.lock:
            self._draw(pool, bit_generator.ctypes.bit_generator, block, k, given)
        contrib = self._contrib[: offsets[k]].copy()
        return sources, targets, lengths > 0, lengths, edges_touched, contrib, offsets

    def _draw(self, pool: ScratchPool, bitgen, block: np.ndarray, k: int, given: int) -> None:
        """Fill ``block``; ``bitgen`` is a numpy ``bitgen_t`` nobody else draws from meanwhile."""
        if pool.mark_a is not self._pool_arrays[0]:
            raise ValueError("not the scratch pool this search was built on")
        # ndarray.ctypes.data costs more than a sample on a small-world graph.
        address = ctypes.addressof(ctypes.c_char.from_buffer(block))
        done = 0
        while done < k:
            # Mark bases for all that is left, or for as many as fit below the
            # pool's reset limit.
            base, started = pool.begin_samples(k - done)
            stop = done + started
            done = self._batch(
                self._address, bitgen, done, stop, given, base, pool.span, address, k
            )
            if done < stop:
                # Sample ``done`` has its pair and nothing else: with room made
                # its search runs again, on a new generation of marks.
                self._make_room()
                given = max(given, done + 1)

    def _make_room(self) -> None:
        """After a batch stopped early: grow what was too small, or raise as the numpy kernel."""
        _, _, _, cut_edges, status, path_vertices = self._out.tolist()
        if status == _BAD_PAIR:
            raise ValueError("source and target must be distinct vertices of the graph")
        if status == _BROKEN_LEVEL:
            raise AssertionError("a cut edge ends above the other search's deepest level")
        if status == _NO_PREDECESSOR:
            raise RuntimeError("inconsistent sigma values during backtracking")
        assert status == _GROW, status
        if cut_edges > self._keys.size:
            self._reserve_cut(2 * cut_edges)
        if path_vertices > self._contrib.size:
            self._reserve_contrib(2 * path_vertices)


def search_on(pool: ScratchPool, indptr: np.ndarray, indices: np.ndarray) -> CompiledSearch:
    """The :class:`CompiledSearch` for ``(indptr, indices)`` that hangs off ``pool``.

    Created on the first call; :func:`usable` must hold for the arrays.
    """
    state = pool.compiled
    if state is None or state.indices is not indices or state.indptr is not indptr:
        state = pool.compiled = CompiledSearch(load()[0], indptr, indices, pool)
    return state


# --------------------------------------------------------------------------- #
# Whole-graph BFS
# --------------------------------------------------------------------------- #

class Sweep:
    """Whole-graph BFS over one graph's CSR arrays: ``repro_sweep`` and its buffers.

    One object serves one caller at a time (a traversal creates its own; the
    component labelling reuses one for all its searches, so that a component
    costs its own vertices and not an ``n``-sized allocation).  A level whose
    frontier holds at least ``n / 24`` vertices and more than 1/14 of the
    adjacency entries not yet settled runs bottom-up and reads O(n + m); at
    most 24 levels on one ``marks`` array do, so a labelling stays O(n + m).
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
        refers to this object's buffers.  Every vertex marked on entry must
        belong to a component marked whole (a fresh array, or a labelling),
        because a level with a large frontier runs bottom-up: each unvisited
        vertex reads its own row up to its first neighbour on the frontier.
        A row extent outside ``indices`` or a neighbour id outside the graph
        that the search reads raises :class:`ValueError`, with ``marks``
        partly stamped; a bottom-up level also reads rows the search never
        reaches and skips the rest of a row after its first hit.
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
