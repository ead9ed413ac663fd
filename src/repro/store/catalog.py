"""Dataset catalog: name/path resolution, auto-conversion and metadata cache.

The catalog is the piece that lets every experiment driver say "give me
``roadNet-PA``" (or a file path) and get a memory-mapped
:class:`~repro.graph.csr.CSRGraph` back:

* paths ending in ``.rcsr`` open directly (zero-copy, O(ms));
* text edge lists / METIS files are converted into the cache directory on
  first touch and opened from the ``.rcsr`` from then on — the text is parsed
  exactly once per (path, mtime, size);
* registered names (``catalog.json`` in the cache directory) resolve to their
  recorded ``.rcsr`` files.

Every cached graph carries a JSON sidecar (``<file>.rcsr.json``) holding the
statistics experiment drivers keep recomputing — vertex/edge counts, max
degree, component count, a double-sweep diameter estimate and the container
checksum — so ``repro info`` and instance resolution are metadata reads, not
graph traversals.

The cache directory defaults to ``$REPRO_GRAPH_CACHE`` or
``~/.cache/repro/graphs``.

A catalog remembers what it resolved, a first-touch conversion included: a
repeated file-path spec is answered from a bounded in-memory memo while
``os.stat`` shows its files — the source and, for a text source, its
``.rcsr`` and that container's sidecar — with the inode, size and mtime they
had when the answer was proven fresh.  Any change,
or a missing file, re-runs the full resolution.  Every container writer
(``write_rcsr``, conversion, partitioning) replaces the file through
``atomic_replace``, so a rewritten container always has a new inode: the
stamp stands in for the header read.  A memo hit (:meth:`GraphCatalog.memoized`)
is so a few ``stat`` calls; it never converts, scans or opens a file.

The same stamp keeps the containers :meth:`GraphCatalog.load` (and
:func:`load_graph`) opened memory-mapped: a bounded, process-wide memo hands
back the graph already mapped while its file keeps its stamp, so a worker
that runs job after job on one graph maps and checks it once per version.  A
:class:`~repro.graph.csr.CSRGraph` is immutable (read-only arrays, fixed
slots), so every thread may share the one object.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph
from repro.obs import trace as obs_trace
from repro.store.convert import ConversionReport, convert_any
from repro.store.delta import DeltaError, GraphDelta, apply_delta
from repro.store.format import (
    StoreFormatError,
    atomic_replace,
    header_checksum,
    open_rcsr,
    read_header,
    write_rcsr,
)

__all__ = [
    "CACHE_ENV_VAR",
    "RESULT_CACHE_ENV_VAR",
    "GraphCatalog",
    "GraphInfo",
    "default_cache_dir",
    "default_result_cache_dir",
    "load_graph",
]

PathLike = Union[str, Path]

CACHE_ENV_VAR = "REPRO_GRAPH_CACHE"
RESULT_CACHE_ENV_VAR = "REPRO_RESULT_CACHE"

_SIDECAR_VERSION = 1

#: Resolved file-path specs one catalog remembers (least recently used goes first).
_MEMO_ENTRIES = 256

#: Containers the process keeps mapped: absolute path -> (stamp, graph).
_MAPPED: "OrderedDict[str, tuple]" = OrderedDict()
_MAPPED_ENTRIES = 8
_mapped_lock = threading.Lock()


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_GRAPH_CACHE`` or ``~/.cache/repro/graphs``."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "graphs"


def default_result_cache_dir() -> Path:
    """Where the query service caches betweenness results.

    ``$REPRO_RESULT_CACHE`` when set; otherwise a ``results`` directory *next
    to* the graph cache (``<graph-cache>/../results``, i.e.
    ``~/.cache/repro/results`` in the default layout) so relocating
    ``$REPRO_GRAPH_CACHE`` carries the result cache along with it.
    """
    env = os.environ.get(RESULT_CACHE_ENV_VAR)
    if env:
        return Path(env)
    return default_cache_dir().parent / "results"


@dataclass
class GraphInfo:
    """Sidecar metadata of one stored graph."""

    name: str
    path: str
    num_vertices: int
    num_edges: int
    max_degree: int
    num_components: int
    diameter_estimate: int
    checksum: str
    source: Optional[str] = None
    source_size: Optional[int] = None
    source_mtime_ns: Optional[int] = None
    #: semantic conversion parameters (fmt / zero_indexed / num_vertices plus
    #: the detected index base); a cached conversion is only reused when a new
    #: request asks for the same semantics.
    conversion: Optional[Dict[str, object]] = None

    @property
    def is_connected(self) -> bool:
        return self.num_components <= 1

    def as_dict(self) -> Dict[str, object]:
        return {"sidecar_version": _SIDECAR_VERSION, **asdict(self)}


def _sidecar_path(rcsr_path: Path) -> Path:
    return rcsr_path.with_name(rcsr_path.name + ".json")


def _read_valid_sidecar(rcsr_path: Path) -> Optional[GraphInfo]:
    """The sidecar of ``rcsr_path`` — only if it describes the current file.

    The recorded checksum is compared against the container header (one cheap
    header read): a sidecar left behind by an interrupted conversion, or by a
    ``CSRGraph.save()`` over a cataloged path, must not be trusted (the CLI
    uses the component count to skip the largest-component pass).
    """
    info = _read_sidecar(rcsr_path)
    if info is None:
        return None
    try:
        header = read_header(rcsr_path)
    except (OSError, StoreFormatError):
        return None
    if info.checksum != header_checksum(header):
        return None
    return info


def _stamps(files: Tuple[Path, ...]) -> Optional[tuple]:
    """``(st_ino, st_size, st_mtime_ns)`` of each file; ``None`` if one is missing."""
    try:
        return tuple(
            (st.st_ino, st.st_size, st.st_mtime_ns) for st in map(os.stat, files)
        )
    except (OSError, ValueError):  # ValueError: a spec no file can have
        return None


def _open_mapped(path: Path) -> CSRGraph:
    """``open_rcsr(path)`` memory-mapped, or the graph already opened from
    ``path`` while the file keeps its stamp (see the module docs)."""
    key, stamp = os.path.abspath(path), _stamps((path,))
    with _mapped_lock:
        entry = _MAPPED.get(key)
        if entry is not None and entry[0] == stamp:
            _MAPPED.move_to_end(key)
            return entry[1]
    graph = open_rcsr(path)
    with _mapped_lock:
        if stamp is not None and _stamps((path,)) == stamp:
            _MAPPED[key] = (stamp, graph)
            _MAPPED.move_to_end(key)
            if len(_MAPPED) > _MAPPED_ENTRIES:
                _MAPPED.popitem(last=False)
        else:
            _MAPPED.pop(key, None)
    return graph


def _compute_info(rcsr_path: Path, *, name: str, source: Optional[Path]) -> GraphInfo:
    """Derive the sidecar statistics from a stored graph (one-off, at convert
    time; opens the graph memory-mapped so peak memory stays O(n))."""
    from repro.diameter import double_sweep_estimate
    from repro.graph.components import connected_components

    header = read_header(rcsr_path)
    graph = open_rcsr(rcsr_path)
    if graph.num_vertices > 0:
        max_degree = int(np.diff(graph.indptr).max())
        components = connected_components(graph)
        num_components = components.num_components
        if graph.num_edges > 0:
            diameter_estimate = int(double_sweep_estimate(graph, seed=0).lower)
        else:
            diameter_estimate = 0
    else:
        max_degree = 0
        num_components = 0
        diameter_estimate = 0
    info = GraphInfo(
        name=name,
        path=str(rcsr_path),
        num_vertices=header.num_vertices,
        num_edges=header.num_edges,
        max_degree=max_degree,
        num_components=num_components,
        diameter_estimate=diameter_estimate,
        checksum=header_checksum(header),
    )
    if source is not None:
        stat = source.stat()
        info.source = str(source)
        info.source_size = stat.st_size
        info.source_mtime_ns = stat.st_mtime_ns
    return info


def _read_sidecar(rcsr_path: Path) -> Optional[GraphInfo]:
    sidecar = _sidecar_path(rcsr_path)
    if not sidecar.exists():
        return None
    try:
        payload = json.loads(sidecar.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("sidecar_version") != _SIDECAR_VERSION:
        return None
    payload.pop("sidecar_version", None)
    try:
        return GraphInfo(**payload)
    except TypeError:
        return None


class GraphCatalog:
    """Resolves graph names and paths to memory-mapped ``.rcsr`` graphs.

    Parameters
    ----------
    cache_dir:
        Where converted graphs, sidecars and the name registry live.  Defaults
        to :func:`default_cache_dir`.  All catalog state is on disk, so
        multiple :class:`GraphCatalog` instances over the same directory see
        the same datasets.
    """

    def __init__(self, cache_dir: Optional[PathLike] = None) -> None:
        self._cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        #: (cwd, spec) -> (rcsr path, checksum, stamped files, their stamps).
        self._memo: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def cache_dir(self) -> Path:
        return self._cache_dir

    @property
    def _registry_path(self) -> Path:
        return self._cache_dir / "catalog.json"

    def _read_registry(self) -> Dict[str, str]:
        try:
            payload = json.loads(self._registry_path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        return {str(k): str(v) for k, v in payload.get("datasets", {}).items()}

    def _write_registry(self, registry: Dict[str, str]) -> None:
        self._cache_dir.mkdir(parents=True, exist_ok=True)
        with atomic_replace(self._registry_path) as tmp:
            tmp.write_text(
                json.dumps({"version": 1, "datasets": registry}, indent=2, sort_keys=True)
            )

    @contextmanager
    def _registry_lock(self):
        """Serialize read-modify-write cycles on ``catalog.json``.

        Concurrent processes sharing a cache directory register datasets; a
        plain read-modify-write would let the last writer drop the other's
        entry.  Uses ``flock`` where available, degrades to unlocked
        elsewhere.
        """
        self._cache_dir.mkdir(parents=True, exist_ok=True)
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX platform
            yield
            return
        with open(self._cache_dir / "catalog.lock", "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # ------------------------------------------------------------------ #
    # Name registry
    # ------------------------------------------------------------------ #
    def register(self, name: str, path: PathLike) -> None:
        """Record ``name`` as an alias for a stored ``.rcsr`` file."""
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"cannot register {name!r}: {path} does not exist")
        with self._registry_lock():
            registry = self._read_registry()
            registry[name] = str(path)
            self._write_registry(registry)

    def names(self) -> List[str]:
        """Registered dataset names, sorted."""
        return sorted(self._read_registry())

    # ------------------------------------------------------------------ #
    # Conversion / resolution
    # ------------------------------------------------------------------ #
    def rcsr_path_for(self, source: PathLike) -> Path:
        """Deterministic cache location for a text input's converted form."""
        source = Path(source).resolve()
        digest = hashlib.sha1(str(source).encode()).hexdigest()[:10]
        stem = source.name
        for suffix in (".gz", ".txt", ".tsv", ".csv", ".edges", ".el", ".metis", ".graph"):
            if stem.lower().endswith(suffix):
                stem = stem[: -len(suffix)]
        return self._cache_dir / f"{stem or 'graph'}-{digest}.rcsr"

    def _fresh_cached_info(
        self, rcsr_path: Path, source: Path, requested: Optional[Dict[str, object]] = None
    ) -> Optional[GraphInfo]:
        """The validated sidecar of a conversion that is still fresh, or None.

        Fresh means: the container matches its sidecar checksum, the recorded
        source fingerprint (path, size, mtime) matches the file on disk, and
        the recorded semantic conversion parameters match ``requested``.
        Returning the info (not a bool) lets the caller reuse it without a
        re-read that could race with a concurrent writer.
        """
        if not rcsr_path.exists():
            return None
        info = _read_valid_sidecar(rcsr_path)
        if info is None or info.source is None:
            return None
        try:
            stat = source.stat()
        except OSError:
            return None
        if requested is not None:
            recorded = info.conversion or {}
            if any(recorded.get(key) != value for key, value in requested.items()):
                return None
        if (
            info.source == str(source.resolve())
            and info.source_size == stat.st_size
            and info.source_mtime_ns == stat.st_mtime_ns
        ):
            return info
        return None

    def convert(
        self,
        source: PathLike,
        dest: Optional[PathLike] = None,
        *,
        force: bool = False,
        fmt: str = "auto",
        **convert_kwargs,
    ) -> ConversionReport:
        """Convert a text input to ``.rcsr`` and write its sidecar.

        Without ``dest`` the output goes to the cache directory.  A fresh
        cached conversion (same source path, size, mtime *and* semantic
        conversion parameters) is reused unless ``force=True``; the report has
        ``cache_hit=True`` and ``num_input_edges == 0`` on a cache hit.
        """
        source = Path(source)
        dest = Path(dest) if dest is not None else self.rcsr_path_for(source)
        with obs_trace.span("store.convert", source=str(source)) as sp:
            report = self._convert_impl(source, dest, force, fmt, convert_kwargs)
            if sp:
                sp.set("cache_hit", bool(report.cache_hit))
                sp.set("num_edges", int(report.num_edges))
        return report

    def _convert_impl(
        self,
        source: Path,
        dest: Path,
        force: bool,
        fmt: str,
        convert_kwargs: Dict[str, object],
    ) -> ConversionReport:
        from repro.store.convert import resolve_format

        requested: Dict[str, object] = {
            # Record the *concrete* format: fmt='auto' and fmt='edgelist' on
            # the same file are the same conversion and must share the cache.
            "fmt": resolve_format(source, fmt),
            "zero_indexed": convert_kwargs.get("zero_indexed"),
            "num_vertices": convert_kwargs.get("num_vertices"),
        }
        cached = None if force else self._fresh_cached_info(dest, source, requested)
        if cached is not None:
            header = read_header(dest)
            return ConversionReport(
                source=str(source),
                dest=str(dest),
                num_vertices=cached.num_vertices,
                num_edges=cached.num_edges,
                num_input_edges=0,
                indices_dtype=str(header.indices_dtype),
                output_bytes=dest.stat().st_size,
                zero_indexed=bool(
                    (cached.conversion or {}).get("detected_zero_indexed", True)
                ),
                cache_hit=True,
            )
        report = convert_any(source, dest, fmt=fmt, **convert_kwargs)
        self._write_sidecar(
            dest,
            name=source.name,
            source=source,
            conversion={**requested, "detected_zero_indexed": report.zero_indexed},
        )
        return report

    def _write_sidecar(
        self,
        rcsr_path: Path,
        *,
        name: str,
        source: Optional[Path],
        conversion: Optional[Dict[str, object]] = None,
    ) -> GraphInfo:
        info = _compute_info(rcsr_path, name=name, source=source.resolve() if source else None)
        info.conversion = conversion
        try:
            with atomic_replace(_sidecar_path(rcsr_path)) as tmp:
                tmp.write_text(json.dumps(info.as_dict(), indent=2, sort_keys=True))
        except OSError:
            # Read-only dataset location: the computed stats are still valid
            # and usable this run — they just cannot be cached next to the
            # container.  (Conversions never hit this: they already wrote the
            # .rcsr to the same directory.)
            pass
        return info

    def store_graph(self, graph: CSRGraph, name: str, *, path: Optional[PathLike] = None) -> Path:
        """Persist an in-memory graph into the catalog under ``name``."""
        path = Path(path) if path is not None else self._cache_dir / f"{name}.rcsr"
        write_rcsr(graph, path)
        self._write_sidecar(path, name=name, source=None)
        self.register(name, path)
        return path

    def resolve(self, spec: PathLike) -> Path:
        """Resolve a name or path to an ``.rcsr`` file, converting on first touch.

        A repeated file-path spec whose files have not changed is answered
        from the memo (see the module docs).
        """
        with obs_trace.span("store.resolve", spec=str(spec)):
            return self._resolved(spec)[0]

    def resolve_checksum(self, spec: PathLike) -> Tuple[Path, str]:
        """:meth:`resolve` and :meth:`checksum` in one call: ``(rcsr path, checksum)``."""
        with obs_trace.span("store.resolve", spec=str(spec)):
            path, checksum = self._resolved(spec)
        if checksum is None:
            checksum = header_checksum(read_header(path))
        return path, checksum

    def memoized(self, spec: PathLike) -> Optional[Tuple[Path, str]]:
        """``(rcsr path, checksum)`` of ``spec`` from the memo alone, or ``None``.

        Answers only while every remembered file still has its stamp (see
        the module docs); never converts, scans the registry or opens a
        container, so it is cheap enough for an event loop.
        """
        key = (os.getcwd(), str(spec))
        with self._memo_lock:
            entry = self._memo.get(key)
            if entry is not None:
                self._memo.move_to_end(key)
        if entry is not None:
            path, checksum, files, stamps = entry
            if _stamps(files) == stamps:
                return path, checksum
        return None

    def _resolved(self, spec: PathLike) -> Tuple[Path, Optional[str]]:
        """``(rcsr path, checksum)`` of ``spec``; the checksum is ``None`` when
        a file was missing up front (a registered name, a first conversion)."""
        remembered = self.memoized(spec)
        if remembered is not None:
            return remembered
        # An answer is remembered only if the source kept its stamp through
        # the resolution (a first conversion included) and no file changed
        # across the checksum read.
        source = Path(spec)
        files: Tuple[Path, ...] = (source,)
        source_stamp = _stamps(files)
        if source_stamp is not None and source.suffix != ".rcsr":
            container = self.rcsr_path_for(source)
            files = (source, container, _sidecar_path(container))
        path = self._resolve_impl(spec)
        checksum = before = None
        if source_stamp is not None:
            before = _stamps(files)
            checksum = header_checksum(read_header(path))
        unchanged = (
            before is not None and before[:1] == source_stamp and _stamps(files) == before
        )
        key = (os.getcwd(), str(spec))
        with self._memo_lock:
            if unchanged:
                self._memo[key] = (path, checksum, files, before)
                if len(self._memo) > _MEMO_ENTRIES:
                    self._memo.popitem(last=False)
            else:
                self._memo.pop(key, None)
        return path, checksum

    def _resolve_impl(self, spec: PathLike) -> Path:
        path = Path(spec)
        if path.suffix == ".rcsr" and path.exists():
            return path
        if path.exists():
            return Path(self.convert(path).dest)
        registry = self._read_registry()
        key = str(spec)
        if key in registry:
            recorded = Path(registry[key])
            if not recorded.exists():
                raise FileNotFoundError(
                    f"catalog entry {key!r} points to missing file {recorded} "
                    f"(registered datasets: {', '.join(self.names()) or 'none'})"
                )
            return recorded
        known = self.names()
        close = difflib.get_close_matches(key, known, n=3, cutoff=0.6)
        hint = f"; did you mean {', '.join(repr(c) for c in close)}?" if close else ""
        raise FileNotFoundError(
            f"graph not found: {spec!r} is neither an existing file nor a "
            f"registered dataset (known: {', '.join(known) or 'none'}){hint}"
        )

    # ------------------------------------------------------------------ #
    # Evolving graphs: delta application + lineage
    # ------------------------------------------------------------------ #
    @property
    def _lineage_path(self) -> Path:
        return self._cache_dir / "lineage.json"

    def _read_lineage(self) -> Dict[str, dict]:
        try:
            payload = json.loads(self._lineage_path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        children = payload.get("children", {})
        return {str(k): dict(v) for k, v in children.items() if isinstance(v, dict)}

    def _write_lineage(self, children: Dict[str, dict]) -> None:
        self._cache_dir.mkdir(parents=True, exist_ok=True)
        with atomic_replace(self._lineage_path) as tmp:
            tmp.write_text(
                json.dumps(
                    {"version": 1, "children": children}, indent=2, sort_keys=True
                )
            )

    def record_lineage(
        self,
        *,
        child_checksum: str,
        parent_checksum: str,
        parent_path: PathLike,
        child_path: PathLike,
        delta: GraphDelta,
    ) -> None:
        """Record that ``child`` was produced from ``parent`` by ``delta``.

        Entries are keyed by the *child* checksum — the direction a query
        walks: a request against a mutated graph looks its own checksum up to
        find the parent whose cached session checkpoint can serve it
        incrementally (``repro.evolve``).  Re-deriving the same child
        overwrites the record idempotently.
        """
        entry = {
            "parent_checksum": parent_checksum,
            "parent_path": str(parent_path),
            "child_path": str(child_path),
            "delta": delta.as_dict(),
            "created_at": time.time(),
        }
        with self._registry_lock():
            children = self._read_lineage()
            children[child_checksum] = entry
            self._write_lineage(children)

    def lineage(self, child_checksum: str) -> Optional[Dict[str, object]]:
        """The lineage record of a graph checksum, or ``None`` for roots.

        The record carries ``parent_checksum``, ``parent_path``,
        ``child_path``, the connecting ``delta`` payload
        (:meth:`~repro.store.delta.GraphDelta.as_dict`) and ``created_at``.
        """
        return self._read_lineage().get(child_checksum)

    def parent_delta(self, child_checksum: str) -> Tuple[str, GraphDelta]:
        """The parent checksum and parsed delta a graph was derived by.

        The one reader of a lineage record's contents.  Raises
        :class:`LookupError` both when the checksum has no record (a root
        graph) and when its record is malformed: either way the graph cannot
        be served from its parent, so every caller treats the two alike.
        """
        record = self.lineage(child_checksum)
        if record is None:
            raise LookupError(f"no lineage record for {child_checksum}")
        malformed = f"malformed lineage record for {child_checksum}"
        try:
            delta = GraphDelta.from_dict(record.get("delta"))
        except DeltaError as exc:
            raise LookupError(f"{malformed}: {exc}") from None
        parent = record.get("parent_checksum")
        if not isinstance(parent, str) or not parent:
            raise LookupError(f"{malformed}: parent_checksum is {parent!r}")
        return parent, delta

    def apply_delta(
        self,
        spec: PathLike,
        delta: GraphDelta,
        *,
        name: Optional[str] = None,
        output: Optional[PathLike] = None,
    ) -> Path:
        """Apply ``delta`` to a stored graph, producing a versioned child.

        The parent resolves like any other graph spec; the child is written
        as a new ``.rcsr`` (by default into the cache directory, named after
        the parent plus a digest of the delta so identical derivations share
        one file), gets a metadata sidecar, and the parent -> child edge is
        recorded in the lineage sidecar.  Pass ``name`` to also register the
        child as a dataset.  Returns the child path.
        """
        parent_path = self.resolve(spec)
        parent = open_rcsr(parent_path)
        child = apply_delta(parent, delta)
        parent_checksum = header_checksum(read_header(parent_path))
        if output is None:
            digest = hashlib.sha1(
                (parent_checksum + json.dumps(delta.as_dict(), sort_keys=True)).encode()
            ).hexdigest()[:10]
            output = self._cache_dir / f"{parent_path.stem}+{digest}.rcsr"
        output = Path(output)
        write_rcsr(child, output)
        self._write_sidecar(output, name=name or output.stem, source=None)
        if name is not None:
            self.register(name, output)
        self.record_lineage(
            child_checksum=header_checksum(read_header(output)),
            parent_checksum=parent_checksum,
            parent_path=parent_path,
            child_path=output,
            delta=delta,
        )
        return output

    # ------------------------------------------------------------------ #
    # Loading / metadata
    # ------------------------------------------------------------------ #
    def load(self, spec: PathLike, *, mmap: bool = True) -> CSRGraph:
        """Open a graph by name or path (memory-mapped by default: the graph
        mapped from an unchanged file before is returned, see the module docs)."""
        path = self.resolve(spec)
        return _open_mapped(path) if mmap else open_rcsr(path, mmap=False)

    def partition(self, spec: PathLike, num_parts: int, *, force: bool = False):
        """Partition a stored graph into ``num_parts`` shards (idempotent).

        Resolves (converting text inputs on first touch, like :meth:`load`),
        then delegates to :func:`repro.store.partition.partition_rcsr`: an
        up-to-date manifest whose shards validate is reused without rewriting
        anything, so distributed launchers may call this on every run.
        """
        from repro.store.partition import partition_rcsr

        rcsr_path = self.resolve(spec)
        with obs_trace.span(
            "store.partition", spec=str(spec), num_parts=int(num_parts)
        ):
            return partition_rcsr(rcsr_path, num_parts, force=force)

    def info(self, spec: PathLike) -> GraphInfo:
        """Sidecar metadata for a graph, computing (and caching) it if absent
        or stale (checksum mismatch with the container)."""
        rcsr_path = self.resolve(spec)
        info = _read_valid_sidecar(rcsr_path)
        if info is not None:
            return info
        return self._write_sidecar(rcsr_path, name=rcsr_path.stem, source=None)

    def checksum(self, spec: PathLike) -> str:
        """The content checksum of a stored graph (``"crc32:<16 hex>"``).

        One header read of the resolved ``.rcsr`` container — no sidecar, no
        graph traversal.  This is the key the query-service result cache uses
        to tie cached betweenness scores to exact graph contents: re-convert a
        changed source file and the checksum (hence the cache key) changes.
        """
        return self.resolve_checksum(spec)[1]

    def cached_checksum(self, spec: PathLike) -> Optional[str]:
        """Like :meth:`checksum`, but **never converts** — ``None`` instead.

        Resolution is limited to what already exists: an ``.rcsr`` path, a
        registered name, or a text input whose converted form is already in
        the cache.  Callers that only need the checksum *if* the graph is
        stored (e.g. ``repro-betweenness cache evict --graph``) use this so
        an eviction can never trigger a multi-gigabyte conversion.
        """
        candidates: List[Path] = []
        path = Path(spec)
        if path.exists():
            candidates.append(path if path.suffix == ".rcsr" else self.rcsr_path_for(path))
        else:
            recorded = self._read_registry().get(str(spec))
            if recorded is not None:
                candidates.append(Path(recorded))
        for candidate in candidates:
            if candidate.exists():
                try:
                    return header_checksum(read_header(candidate))
                except (OSError, StoreFormatError):
                    return None
        return None

    def cached_info(self, rcsr_path: PathLike) -> Optional[GraphInfo]:
        """The sidecar of a stored graph if a valid one exists — never computes.

        Cheap by construction (one JSON read plus one header read); callers
        that only *benefit* from the metadata (e.g. the CLI's
        connected-component skip) use this so a bare ``.rcsr`` input never
        pays for whole-graph statistics, and a stale sidecar returns ``None``
        rather than wrong answers.
        """
        return _read_valid_sidecar(Path(rcsr_path))


def load_graph(
    spec: PathLike, *, catalog: Optional[GraphCatalog] = None, mmap: bool = True
) -> CSRGraph:
    """Module-level convenience: load a graph through a (default) catalog.

    Memory-mapped (the default), a file loaded before and unchanged since
    (same inode, size and mtime) comes back as the same, shared
    :class:`~repro.graph.csr.CSRGraph` object, not mapped again.
    """
    return (catalog or GraphCatalog()).load(spec, mmap=mmap)
