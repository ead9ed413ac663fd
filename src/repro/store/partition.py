"""Partitioned ``.rcsr`` shards: per-rank adjacency for the distributed runtime.

The paper's scale-out argument assumes each MPI rank holds only a *slice* of
the graph: with ``K`` partitions a rank maps ``~1/K`` of the adjacency arrays
instead of the full CSR.  This module implements that slicing on top of the
existing container format, without a new on-disk format:

* :func:`partition_rcsr` splits a monolithic ``.rcsr`` into ``K`` shard files
  ``{stem}.part{k}of{K}.rcsr`` covering contiguous vertex ranges balanced by
  arc count.  Every shard is itself a *valid standalone* ``.rcsr``: its
  ``indptr`` is rebased to start at 0 while its ``indices`` keep **global**
  vertex ids (the container never range-checks indices against the local
  vertex count, which is exactly what makes this slicing free).  Each shard
  therefore carries its own per-partition CRC-32 sidecars in its header.
* a JSON *manifest* ``{stem}.parts{K}.json`` records the vertex boundaries,
  per-shard checksums, the source container checksum and a precomputed
  vertex-diameter upper bound (so distributed ranks skip the sequential
  diameter phase).
* :class:`PartitionedGraphView` gives a rank a graph-shaped object over the
  shards: its *own* shard is mapped eagerly (and checksum-validated against
  the manifest); sibling shards are memory-mapped lazily on first
  cross-partition adjacency access, so a rank's resident set is its shard
  plus only the remote pages its BFS frontiers actually touch.
* :class:`ShardedPathSampler` samples uniform shortest paths through the view
  (single-sided sigma-BFS + sigma-weighted backward walk, the same algorithm
  as the kernel backends), which is what
  :func:`repro.core.kadabra.make_sampler` picks up via the ``native_sampler``
  hook.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph
from repro.store.format import (
    StoreFormatError,
    atomic_replace,
    header_checksum,
    open_rcsr,
    read_header,
    write_rcsr,
)

__all__ = [
    "PARTITION_MANIFEST_VERSION",
    "PartitionError",
    "ShardInfo",
    "PartitionManifest",
    "PartitionedGraphView",
    "ShardedPathSampler",
    "manifest_path_for",
    "partition_boundaries",
    "partition_rcsr",
    "find_manifests",
    "format_placement",
]

PathLike = Union[str, Path]

PARTITION_MANIFEST_VERSION = 1


class PartitionError(StoreFormatError):
    """Raised for invalid, corrupt or missing partition shards/manifests."""


def _rcsr_stem(path: Path) -> str:
    name = path.name
    return name[: -len(".rcsr")] if name.endswith(".rcsr") else path.stem


def manifest_path_for(rcsr_path: PathLike, num_parts: int) -> Path:
    """Where the manifest of a ``num_parts``-way partition lives."""
    rcsr_path = Path(rcsr_path)
    return rcsr_path.with_name(f"{_rcsr_stem(rcsr_path)}.parts{int(num_parts)}.json")


def shard_path_for(rcsr_path: PathLike, part: int, num_parts: int) -> Path:
    """The shard file of partition ``part`` of ``num_parts``."""
    rcsr_path = Path(rcsr_path)
    return rcsr_path.with_name(
        f"{_rcsr_stem(rcsr_path)}.part{int(part)}of{int(num_parts)}.rcsr"
    )


def partition_boundaries(indptr: np.ndarray, num_parts: int) -> np.ndarray:
    """Contiguous vertex ranges balanced by arc count.

    Returns an int64 array ``b`` of length ``num_parts + 1`` with ``b[0] = 0``
    and ``b[-1] = n``; partition ``k`` owns vertices ``[b[k], b[k+1])``.  Cuts
    are placed by binary search on the row pointer so every partition carries
    roughly ``num_arcs / num_parts`` adjacency entries; each partition is
    guaranteed at least one vertex (so ``num_parts`` may not exceed ``n``).
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    n = int(indptr.size - 1)
    num_parts = int(num_parts)
    if num_parts <= 0:
        raise PartitionError("num_parts must be positive")
    if num_parts > n:
        raise PartitionError(f"cannot split {n} vertices into {num_parts} partitions")
    total_arcs = int(indptr[-1])
    bounds = np.empty(num_parts + 1, dtype=np.int64)
    bounds[0] = 0
    bounds[num_parts] = n
    for k in range(1, num_parts):
        target = total_arcs * k // num_parts
        cut = int(np.searchsorted(indptr, target, side="left"))
        # Clamp so every partition keeps >= 1 vertex on both sides of the cut.
        bounds[k] = min(max(cut, int(bounds[k - 1]) + 1), n - (num_parts - k))
    return bounds


@dataclass(frozen=True)
class ShardInfo:
    """Manifest record of one shard file."""

    path: str  # file name, relative to the manifest's directory
    vertex_lo: int
    vertex_hi: int
    num_arcs: int
    checksum: str

    @property
    def num_vertices(self) -> int:
        return self.vertex_hi - self.vertex_lo


@dataclass
class PartitionManifest:
    """The ``{stem}.parts{K}.json`` sidecar describing one partitioning."""

    stem: str
    num_parts: int
    num_vertices: int
    num_arcs: int
    source_checksum: str
    vertex_diameter: int
    shards: List[ShardInfo] = field(default_factory=list)
    directory: Optional[Path] = None  # where the manifest (and shards) live

    # ------------------------------------------------------------------ #
    @property
    def boundaries(self) -> np.ndarray:
        bounds = np.empty(self.num_parts + 1, dtype=np.int64)
        for k, shard in enumerate(self.shards):
            bounds[k] = shard.vertex_lo
        bounds[self.num_parts] = self.num_vertices
        return bounds

    def shard_path(self, part: int) -> Path:
        if not (0 <= part < self.num_parts):
            raise PartitionError(f"partition index {part} out of range [0, {self.num_parts})")
        if self.directory is None:
            raise PartitionError("manifest has no directory; load it from disk first")
        return self.directory / self.shards[part].path

    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        return {
            "version": PARTITION_MANIFEST_VERSION,
            "stem": self.stem,
            "num_parts": self.num_parts,
            "num_vertices": self.num_vertices,
            "num_arcs": self.num_arcs,
            "source_checksum": self.source_checksum,
            "vertex_diameter": self.vertex_diameter,
            "shards": [
                {
                    "path": s.path,
                    "vertex_lo": s.vertex_lo,
                    "vertex_hi": s.vertex_hi,
                    "num_arcs": s.num_arcs,
                    "checksum": s.checksum,
                }
                for s in self.shards
            ],
        }

    def save(self, path: PathLike) -> Path:
        path = Path(path)
        with atomic_replace(path) as tmp:
            tmp.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True))
        self.directory = path.parent
        return path

    @classmethod
    def load(cls, path: PathLike) -> "PartitionManifest":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise PartitionError(f"{path}: cannot read partition manifest: {exc}") from None
        except json.JSONDecodeError as exc:
            raise PartitionError(f"{path}: manifest is not valid JSON: {exc}") from None
        if payload.get("version") != PARTITION_MANIFEST_VERSION:
            raise PartitionError(
                f"{path}: unsupported manifest version {payload.get('version')!r}"
            )
        try:
            shards = [
                ShardInfo(
                    path=str(s["path"]),
                    vertex_lo=int(s["vertex_lo"]),
                    vertex_hi=int(s["vertex_hi"]),
                    num_arcs=int(s["num_arcs"]),
                    checksum=str(s["checksum"]),
                )
                for s in payload["shards"]
            ]
            manifest = cls(
                stem=str(payload["stem"]),
                num_parts=int(payload["num_parts"]),
                num_vertices=int(payload["num_vertices"]),
                num_arcs=int(payload["num_arcs"]),
                source_checksum=str(payload["source_checksum"]),
                vertex_diameter=int(payload["vertex_diameter"]),
                shards=shards,
                directory=path.parent,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PartitionError(f"{path}: malformed partition manifest: {exc}") from None
        if len(manifest.shards) != manifest.num_parts:
            raise PartitionError(
                f"{path}: manifest declares {manifest.num_parts} partitions but "
                f"lists {len(manifest.shards)} shards"
            )
        return manifest

    # ------------------------------------------------------------------ #
    def validate_shards(self, *, deep: bool = False) -> None:
        """Verify every shard exists and matches its recorded checksum.

        The default check reads only each shard's header (the header carries
        both section CRCs, so swapping in a *different* valid shard is caught
        cheaply).  ``deep=True`` additionally streams every section through
        CRC-32, catching in-place byte corruption of the array data.
        """
        for k, shard in enumerate(self.shards):
            path = self.shard_path(k)
            if not path.exists():
                raise PartitionError(f"missing partition shard: {path}")
            try:
                header = read_header(path)
            except StoreFormatError as exc:
                raise PartitionError(f"corrupt partition shard {path}: {exc}") from None
            if header_checksum(header) != shard.checksum:
                raise PartitionError(
                    f"partition shard {path} fails its manifest checksum "
                    f"({header_checksum(header)} != {shard.checksum})"
                )
            if header.num_vertices != shard.num_vertices or header.num_arcs != shard.num_arcs:
                raise PartitionError(
                    f"partition shard {path} has unexpected shape "
                    f"(n={header.num_vertices}, arcs={header.num_arcs})"
                )
            if deep:
                try:
                    open_rcsr(path, verify_checksum=True)
                except StoreFormatError as exc:
                    raise PartitionError(f"corrupt partition shard {path}: {exc}") from None

    def matches_source(self, rcsr_path: PathLike) -> bool:
        """Whether this manifest describes the current contents of ``rcsr_path``."""
        try:
            return header_checksum(read_header(Path(rcsr_path))) == self.source_checksum
        except (OSError, StoreFormatError):
            return False


def partition_rcsr(
    rcsr_path: PathLike,
    num_parts: int,
    *,
    force: bool = False,
    vertex_diameter: Optional[int] = None,
) -> PartitionManifest:
    """Split a monolithic ``.rcsr`` into ``num_parts`` shard files + manifest.

    Idempotent: an existing manifest whose source checksum matches the current
    container and whose shards validate is reused as-is (no shard rewrite)
    unless ``force=True``.  The manifest records a vertex-diameter upper bound
    computed once on the monolithic graph (pass ``vertex_diameter`` to skip
    the computation), which distributed ranks inject as
    ``vertex_diameter_override`` so no rank ever needs the full adjacency for
    the diameter phase.
    """
    rcsr_path = Path(rcsr_path)
    num_parts = int(num_parts)
    manifest_path = manifest_path_for(rcsr_path, num_parts)
    if not force and manifest_path.exists():
        try:
            manifest = PartitionManifest.load(manifest_path)
            if manifest.matches_source(rcsr_path):
                manifest.validate_shards()
                return manifest
        except PartitionError:
            pass  # stale or broken: rebuild below

    graph = open_rcsr(rcsr_path)
    header = read_header(rcsr_path)
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    indices = graph.indices
    bounds = partition_boundaries(indptr, num_parts)

    if vertex_diameter is None:
        from repro.diameter import vertex_diameter_upper_bound

        vertex_diameter = max(vertex_diameter_upper_bound(graph, seed=0), 2)

    stem = _rcsr_stem(rcsr_path)
    shards: List[ShardInfo] = []
    for k in range(num_parts):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        shard_indptr = np.ascontiguousarray(indptr[lo : hi + 1] - indptr[lo])
        shard_indices = np.ascontiguousarray(indices[indptr[lo] : indptr[hi]])
        shard = CSRGraph.from_validated_arrays(shard_indptr, shard_indices)
        path = shard_path_for(rcsr_path, k, num_parts)
        write_rcsr(shard, path)
        shards.append(
            ShardInfo(
                path=path.name,
                vertex_lo=lo,
                vertex_hi=hi,
                num_arcs=int(shard_indices.size),
                checksum=header_checksum(read_header(path)),
            )
        )

    manifest = PartitionManifest(
        stem=stem,
        num_parts=num_parts,
        num_vertices=graph.num_vertices,
        num_arcs=header.num_arcs,
        source_checksum=header_checksum(header),
        vertex_diameter=int(vertex_diameter),
        shards=shards,
        directory=rcsr_path.parent,
    )
    manifest.save(manifest_path)
    return manifest


def find_manifests(rcsr_path: PathLike) -> List[PartitionManifest]:
    """All valid partition manifests next to a stored graph, by part count."""
    rcsr_path = Path(rcsr_path)
    out: List[PartitionManifest] = []
    for candidate in sorted(rcsr_path.parent.glob(f"{_rcsr_stem(rcsr_path)}.parts*.json")):
        try:
            manifest = PartitionManifest.load(candidate)
        except PartitionError:
            continue
        if manifest.matches_source(rcsr_path):
            out.append(manifest)
    return sorted(out, key=lambda m: m.num_parts)


def format_placement(manifest: PartitionManifest) -> List[str]:
    """Human-readable predicted rank -> shard placement lines (CLI ``info``)."""
    lines = [
        f"partitioned x{manifest.num_parts}: "
        f"{manifest.num_vertices} vertices, {manifest.num_arcs} arcs, "
        f"vertex diameter <= {manifest.vertex_diameter}"
    ]
    for k, shard in enumerate(manifest.shards):
        share = shard.num_arcs / manifest.num_arcs if manifest.num_arcs else 0.0
        lines.append(
            f"  rank {k}: vertices [{shard.vertex_lo}, {shard.vertex_hi}) "
            f"arcs {shard.num_arcs} ({share:.0%})  {shard.path}"
        )
    return lines


class PartitionedGraphView:
    """Graph-shaped view over partition shards, owned by one rank.

    The rank's own shard is opened (memory-mapped) eagerly at construction and
    validated against the manifest checksum — a missing or substituted shard
    is rejected immediately.  Sibling shards are mapped lazily on first
    cross-partition adjacency access; memory maps share the OS page cache, so
    the rank only pays for the remote pages its traversals actually touch.

    The view quacks enough like :class:`~repro.graph.csr.CSRGraph` for the
    samplers and drivers (``num_vertices``, ``num_edges``, ``neighbors``,
    ``degree``) and exposes :meth:`native_sampler`, which
    :func:`repro.core.kadabra.make_sampler` routes to so the unchanged
    calibration/adaptive phases sample through the shards transparently.
    """

    def __init__(self, manifest: PartitionManifest, own_part: int, *, mmap: bool = True) -> None:
        if not (0 <= own_part < manifest.num_parts):
            raise PartitionError(
                f"own_part {own_part} out of range [0, {manifest.num_parts})"
            )
        self._manifest = manifest
        self._own_part = int(own_part)
        self._mmap = mmap
        self._boundaries = manifest.boundaries
        self._shards: List[Optional[CSRGraph]] = [None] * manifest.num_parts
        self._shard(self._own_part)  # eager + validated
        self._eager_parts: Tuple[int, ...] = tuple(
            k for k, s in enumerate(self._shards) if s is not None
        )

    # ------------------------------------------------------------------ #
    @property
    def manifest(self) -> PartitionManifest:
        return self._manifest

    @property
    def own_part(self) -> int:
        return self._own_part

    @property
    def num_vertices(self) -> int:
        return self._manifest.num_vertices

    @property
    def num_edges(self) -> int:
        return self._manifest.num_arcs // 2

    @property
    def source_path(self):
        return None

    def eager_parts(self) -> Tuple[int, ...]:
        """Partitions mapped at construction time (the rank's own shard)."""
        return self._eager_parts

    def loaded_parts(self) -> Tuple[int, ...]:
        """All partitions mapped so far (own + lazily touched siblings)."""
        return tuple(k for k, s in enumerate(self._shards) if s is not None)

    # ------------------------------------------------------------------ #
    def _shard(self, part: int) -> CSRGraph:
        shard = self._shards[part]
        if shard is None:
            info = self._manifest.shards[part]
            path = self._manifest.shard_path(part)
            if not path.exists():
                raise PartitionError(f"missing partition shard: {path}")
            try:
                header = read_header(path)
            except StoreFormatError as exc:
                raise PartitionError(f"corrupt partition shard {path}: {exc}") from None
            if header_checksum(header) != info.checksum:
                raise PartitionError(
                    f"partition shard {path} fails its manifest checksum"
                )
            shard = open_rcsr(path, mmap=self._mmap)
            self._shards[part] = shard
        return shard

    def neighbors(self, v: int) -> np.ndarray:
        """Global-id adjacency of global vertex ``v`` (read-only slice)."""
        v = int(v)
        part = int(np.searchsorted(self._boundaries, v, side="right") - 1)
        return self._shard(part).neighbors(v - int(self._boundaries[part]))

    def degree(self, v: int) -> int:
        return int(self.neighbors(v).size)

    def native_sampler(self, options, kernel: Optional[str] = None) -> "ShardedPathSampler":
        """The sampler :func:`~repro.core.kadabra.make_sampler` routes to.

        The batched kernel backends need the full contiguous CSR arrays, so a
        forced ``kernel`` cannot be honoured on a sharded view; the sigma-BFS
        below is statistically identical (uniform shortest-path sampling).
        """
        del options, kernel  # sharded sampling has a single implementation
        return ShardedPathSampler(self)

    def __repr__(self) -> str:
        return (
            f"PartitionedGraphView(n={self.num_vertices}, m={self.num_edges}, "
            f"part={self._own_part}/{self._manifest.num_parts})"
        )


class ShardedPathSampler:
    """Uniform shortest-path sampler over a :class:`PartitionedGraphView`.

    Single-sided level-synchronous sigma-BFS from the source until the target
    is settled, followed by a sigma-weighted backward walk — the same uniform
    path distribution as the kernel backends, with every adjacency read going
    through the view so only the touched shard pages fault in.

    Implements the part of :class:`~repro.kernels.BatchPathSampler` the
    drivers use (``compiled``, ``sample_batch``).
    """

    #: The search is numpy over the view, never the compiled helper.
    compiled = False

    def __init__(self, view: PartitionedGraphView) -> None:
        if view.num_vertices < 2:
            raise ValueError("ShardedPathSampler requires a graph with at least 2 vertices")
        self._view = view
        n = view.num_vertices
        self._dist = np.empty(n, dtype=np.int64)
        self._sigma = np.empty(n, dtype=np.float64)

    # ------------------------------------------------------------------ #
    def sample_batch(self, batch_size: int, rng: np.random.Generator):
        """Draw ``batch_size`` uniform pairs, one shortest path each, as a flat-array ``SampleBatch``.

        Each pair is drawn right before its search, so the RNG stream is the
        same for any batch size.
        """
        from repro.kernels.batch import _BatchAccumulator, count_samples
        from repro.sampling.base import sample_vertex_pair

        k = int(batch_size)
        if k <= 0:
            raise ValueError("batch_size must be positive")
        n = self._view.num_vertices
        sources = np.empty(k, dtype=np.int64)
        targets = np.empty(k, dtype=np.int64)
        out = _BatchAccumulator(k)
        for i in range(k):
            s, t = sample_vertex_pair(n, rng)
            sources[i], targets[i] = s, t
            out.record(i, self._search(s, t, rng))
        count_samples(k)
        return out.finish(sources, targets)

    def _search(self, source: int, target: int, rng: np.random.Generator):
        """``(connected, length, internal vertices, edges touched)`` of one pair, as a kernel returns."""
        from repro.kernels.weighted import weighted_index

        view = self._view
        dist = self._dist
        sigma = self._sigma
        dist.fill(-1)
        sigma.fill(0.0)
        dist[source] = 0
        sigma[source] = 1.0
        frontier = np.asarray([source], dtype=np.int64)
        edges = 0
        level = 0
        while frontier.size > 0 and dist[target] < 0:
            level += 1
            next_frontier: List[np.ndarray] = []
            for u in frontier:
                nbrs = view.neighbors(int(u)).astype(np.int64, copy=False)
                edges += int(nbrs.size)
                if nbrs.size == 0:
                    continue
                fresh = nbrs[dist[nbrs] < 0]
                if fresh.size:
                    dist[fresh] = level
                    next_frontier.append(fresh)
                same = nbrs[dist[nbrs] == level]
                if same.size:
                    np.add.at(sigma, same, sigma[int(u)])
            frontier = (
                np.concatenate(next_frontier)
                if next_frontier
                else np.empty(0, dtype=np.int64)
            )
        if dist[target] < 0:
            return False, 0, [], edges
        length = int(dist[target])
        internal: List[int] = []
        current = int(target)
        for depth in range(length - 1, 0, -1):
            preds = view.neighbors(current).astype(np.int64, copy=False)
            preds = preds[dist[preds] == depth]
            weights = sigma[preds]
            current = int(preds[weighted_index(weights, float(weights.sum()), rng)])
            internal.append(current)
        internal.reverse()
        return True, length, internal, edges
