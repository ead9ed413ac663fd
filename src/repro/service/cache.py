"""Persistent on-disk cache of betweenness results, keyed by graph contents.

Layout (rooted at :func:`repro.store.default_result_cache_dir`, i.e.
``$REPRO_RESULT_CACHE`` or ``results/`` next to the graph cache)::

    results/
      crc32-<16 hex>/                 one directory per graph *checksum*
        <key>.meta.json               small: accuracy, family, backend, counts
        <key>.result.json             full BetweennessResult (to_json_dict)
        <key>.session.snap            optional: session checkpoint (refinable)

Splitting each entry into a tiny meta file and the (potentially large) score
payload keeps the dominance scan cheap: finding a reusable entry reads only
meta files; the score vector is loaded once, for the single entry that wins.
Writes go through ``atomic_replace`` and the meta file is written *after* the
result payload, so a crash can leave an orphaned payload (harmless, ignored)
but never a meta file pointing at a missing/truncated result.

Keying by the ``.rcsr`` container checksum — not the request's graph string —
is what makes reuse safe across renames and stale across edits: two paths to
the same converted graph share entries, and re-converting a changed source
produces a new checksum directory, so every old entry silently misses.

Entries produced by refinement-capable backends additionally store the final
*session checkpoint* (``<key>.session.snap``, the CRC-checked container of
:mod:`repro.session.snapshot`).  A request the entry does **not** dominate but
:func:`~repro.service.dominance.classify` deems *refinable* (same adaptive
family and seed, tighter eps/delta) is then served by ``restore + refine``
instead of a cold recompute — see :meth:`ResultCache.find_refinable`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.result import BetweennessResult
from repro.service.dominance import (
    REFINABLE,
    UPDATE_REFINABLE,
    algorithm_family,
    classify,
    select_dominating,
)
from repro.service.schema import QueryRequest
from repro.store.catalog import default_result_cache_dir
from repro.store.format import atomic_replace

__all__ = ["CacheEntry", "CachedAnswer", "HotTier", "ResultCache"]

PathLike = Union[str, Path]

_CACHE_VERSION = 1

#: Hot-tier defaults, overridable per instance or via the environment
#: (``$REPRO_HOT_CACHE_ENTRIES`` / ``$REPRO_HOT_CACHE_TTL``; 0 entries
#: disables the tier).
DEFAULT_HOT_ENTRIES = 256
DEFAULT_HOT_TTL_SECONDS = 60.0

#: Response bytes one answer keeps: a client cycling through large ``k`` cannot pin memory.
SLOT_BODY_BYTES = 1 << 18


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return float(raw)
    except ValueError:
        return default


class HotTier:
    """In-memory TTL + LRU tier in front of the on-disk result cache.

    A disk cache hit is O(ms): scan the checksum directory, parse meta JSON,
    parse the winning result payload back into arrays.  Under serving load
    the same handful of (graph, accuracy) requests repeat, so the winning
    ``(entry, result)`` pair is kept in memory keyed by the *request* tuple
    ``(checksum, family, eps, delta)`` — a hot hit is a dict lookup, which
    ``scripts/load_smoke.py`` gates at >= 5x faster than the disk scan.

    * **LRU** bounds memory: at most ``max_entries`` results are pinned
      (an ``OrderedDict``, least-recently-used evicted first).
    * **TTL** bounds cross-process staleness: another process evicting a
      disk entry cannot invalidate this process's memory, so hot entries
      expire after ``ttl_seconds`` and fall back to the disk scan.  Local
      writes/evictions invalidate eagerly.
    * Only *positive* lookups are cached — caching misses would hide results
      other processes (workers!) write, for a full TTL.

    Thread-safe; shared results are returned by reference and must be
    treated as read-only (every consumer in the service tier does).  A value
    (:class:`CachedAnswer`) takes its encoded response bodies along when dropped.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_HOT_ENTRIES,
        ttl_seconds: float = DEFAULT_HOT_TTL_SECONDS,
        *,
        clock=time.monotonic,
    ) -> None:
        self.max_entries = int(max_entries)
        self.ttl_seconds = float(ttl_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.encoded_bodies = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0 and self.ttl_seconds > 0

    def get(self, key: tuple):
        """The cached value, or ``None`` (expired entries are dropped)."""
        if not self.enabled:
            return None
        now = self._clock()
        with self._lock:
            item = self._entries.get(key)
            if item is not None and now - item[0] <= self.ttl_seconds:
                self._entries.move_to_end(key)
                self.hits += 1
                return item[1]
            if item is not None:
                del self._entries[key]
                self.evictions += 1
            self.misses += 1
            return None

    def put(self, key: tuple, value) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._entries[key] = (self._clock(), value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, checksum: Optional[str] = None) -> None:
        """Drop entries of one graph checksum (key[0]), or everything."""
        with self._lock:
            stale = [key for key in self._entries if checksum in (None, key[0])]
            for key in stale:
                del self._entries[key]
            self.evictions += len(stale)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "ttl_seconds": self.ttl_seconds,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "encoded_bodies": self.encoded_bodies,
            }


class CachedAnswer(tuple):
    """``(entry, result)`` as :meth:`ResultCache.find` returns it and a hot slot holds
    it, plus its cache-hit response bodies by ``k`` (up to :data:`SLOT_BODY_BYTES`)."""

    def __new__(cls, entry: CacheEntry, result: BetweennessResult, tier: HotTier):
        answer = super().__new__(cls, (entry, result))
        answer.tier, answer.bodies = tier, {}
        return answer

    def body(self, k: int, build: Callable[[], bytes]) -> bytes:
        """The body ``build()`` encodes for ``k``, built by the first hit for ``k``."""
        body = self.bodies.get(k)
        if body is None:
            body = build()
            with self.tier._lock:  # threads sharing the answer: count and keep atomically
                self.tier.encoded_bodies += 1
                if sum(map(len, self.bodies.values())) + len(body) <= SLOT_BODY_BYTES:
                    self.bodies[k] = body
        return body


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one cached result (the ``.meta.json`` contents)."""

    key: str
    graph_checksum: str
    graph: str
    algorithm: str
    family: str
    eps: Optional[float]
    delta: Optional[float]
    seed: Optional[int]
    backend: Optional[str]
    num_vertices: int
    num_samples: int
    created_at: float
    #: Whether a session checkpoint is stored next to the result, making the
    #: entry refinable.  Defaulted so meta files written before the session
    #: redesign load unchanged.
    has_snapshot: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {"cache_version": _CACHE_VERSION, **asdict(self)}


def _checksum_dirname(checksum: str) -> str:
    # "crc32:0123...":  ':' is awkward in paths (and illegal on some
    # filesystems), so directories use '-' instead.
    return checksum.replace(":", "-")


def _hot_key(checksum: str, family: str, eps: float, delta: float) -> tuple:
    return (checksum, family, float(eps), float(delta))


def _entry_key(algorithm: str, eps: float, delta: float, seed: Optional[int]) -> str:
    material = f"{algorithm}|{eps!r}|{delta!r}|{seed!r}"
    return hashlib.sha1(material.encode()).hexdigest()[:16]


class ResultCache:
    """Dominance-aware persistent cache of :class:`BetweennessResult` objects.

    All state is on disk; any number of :class:`ResultCache` instances (and
    processes) over the same directory see the same entries, mirroring how
    :class:`~repro.store.GraphCatalog` treats the graph cache.
    """

    def __init__(
        self,
        cache_dir: Optional[PathLike] = None,
        *,
        hot_entries: Optional[int] = None,
        hot_ttl_seconds: Optional[float] = None,
    ) -> None:
        self._cache_dir = (
            Path(cache_dir) if cache_dir is not None else default_result_cache_dir()
        )
        if hot_entries is None:
            hot_entries = int(_env_float("REPRO_HOT_CACHE_ENTRIES", DEFAULT_HOT_ENTRIES))
        if hot_ttl_seconds is None:
            hot_ttl_seconds = _env_float("REPRO_HOT_CACHE_TTL", DEFAULT_HOT_TTL_SECONDS)
        self.hot = HotTier(hot_entries, hot_ttl_seconds)

    @property
    def cache_dir(self) -> Path:
        return self._cache_dir

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def put(
        self,
        checksum: str,
        request: QueryRequest,
        result: BetweennessResult,
        *,
        snapshot: Optional[PathLike] = None,
        text: Optional[str] = None,
    ) -> CacheEntry:
        """Store a finished run; returns the entry that now serves it.

        The entry records the *achieved* guarantee (the eps/delta echoed in
        the result, which the facade always populates) and the family of the
        backend that actually ran — not the request's ``"auto"``.  ``text``
        is ``result.to_json()`` when the caller already has it.

        ``snapshot`` optionally names a session checkpoint file produced by
        the run; it is moved (``os.replace``: it must be on the cache's file
        system) next to the result as ``<key>.session.snap`` and the entry is
        marked refinable.  Write order is snapshot, result, meta — so a meta
        file claiming ``has_snapshot`` always points at complete files.
        """
        algorithm = result.backend or request.algorithm
        eps = result.eps if result.eps is not None else request.eps
        delta = result.delta if result.delta is not None else request.delta
        family = algorithm_family(algorithm)
        entry = CacheEntry(
            key=_entry_key(algorithm, eps, delta, request.seed),
            graph_checksum=checksum,
            graph=request.graph,
            algorithm=algorithm,
            family=family,
            eps=None if family == "exact" else float(eps),
            delta=None if family == "exact" else float(delta),
            seed=request.seed,
            backend=result.backend,
            num_vertices=result.num_vertices,
            num_samples=int(result.num_samples),
            created_at=time.time(),
            has_snapshot=snapshot is not None,
        )
        entry_dir = self._cache_dir / _checksum_dirname(checksum)
        entry_dir.mkdir(parents=True, exist_ok=True)
        # Snapshot and payload first, meta last: a meta file implies complete
        # companion files.
        if snapshot is not None:
            os.replace(snapshot, self._snapshot_path(entry_dir, entry.key))
        else:
            # Overwriting a snapshot-carrying entry with a snapshot-less run
            # must drop the old checkpoint, or it leaks on disk forever (the
            # new meta says has_snapshot=False, so nothing would ever serve
            # or evict it through the entry again).
            try:
                self._snapshot_path(entry_dir, entry.key).unlink()
            except OSError:
                pass
        with atomic_replace(self._result_path(entry_dir, entry.key)) as tmp:
            tmp.write_text(result.to_json() if text is None else text)
        with atomic_replace(self._meta_path(entry_dir, entry.key)) as tmp:
            tmp.write_text(json.dumps(entry.as_dict(), indent=2, sort_keys=True))
        # A new entry may change which on-disk entry *wins* for requests on
        # this graph (select_dominating prefers the loosest sufficient one),
        # so the hot tier's memory of those verdicts is dropped.
        self.hot.invalidate(checksum)
        return entry

    # ------------------------------------------------------------------ #
    # Scanning / lookup
    # ------------------------------------------------------------------ #
    @staticmethod
    def _meta_path(entry_dir: Path, key: str) -> Path:
        return entry_dir / f"{key}.meta.json"

    @staticmethod
    def _result_path(entry_dir: Path, key: str) -> Path:
        return entry_dir / f"{key}.result.json"

    @staticmethod
    def _snapshot_path(entry_dir: Path, key: str) -> Path:
        return entry_dir / f"{key}.session.snap"

    def snapshot_path(self, entry: CacheEntry) -> Optional[Path]:
        """The on-disk session checkpoint of an entry, or ``None``."""
        if not entry.has_snapshot:
            return None
        entry_dir = self._cache_dir / _checksum_dirname(entry.graph_checksum)
        path = self._snapshot_path(entry_dir, entry.key)
        return path if path.is_file() else None

    def _read_entry(self, meta_path: Path) -> Optional[CacheEntry]:
        try:
            payload = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("cache_version") != _CACHE_VERSION:
            return None
        payload.pop("cache_version", None)
        try:
            return CacheEntry(**payload)
        except TypeError:
            return None

    def entries(self, checksum: Optional[str] = None) -> List[CacheEntry]:
        """All valid entries (for one graph checksum, or the whole cache)."""
        if checksum is not None:
            dirs = [self._cache_dir / _checksum_dirname(checksum)]
        elif self._cache_dir.is_dir():
            dirs = sorted(d for d in self._cache_dir.iterdir() if d.is_dir())
        else:
            dirs = []
        out: List[CacheEntry] = []
        for entry_dir in dirs:
            if not entry_dir.is_dir():
                continue
            try:
                meta_paths = sorted(entry_dir.glob("*.meta.json"))
            except OSError:
                continue  # directory evicted between the listing and the scan
            for meta_path in meta_paths:
                entry = self._read_entry(meta_path)
                if entry is not None:
                    out.append(entry)
        return out

    def load(self, entry: CacheEntry) -> BetweennessResult:
        """The full result of a cache entry (raises if the payload is gone)."""
        entry_dir = self._cache_dir / _checksum_dirname(entry.graph_checksum)
        return BetweennessResult.from_json(
            self._result_path(entry_dir, entry.key).read_text()
        )

    def find_hot(
        self, checksum: str, *, family: str, eps: float, delta: float
    ) -> Optional[CachedAnswer]:
        """:meth:`find`'s answer from the in-memory :class:`HotTier` alone
        (keyed by the request tuple), or ``None``; never touches the disk."""
        return self.hot.get(_hot_key(checksum, family, eps, delta))

    def find(
        self, checksum: str, *, family: str, eps: float, delta: float, hot: bool = True
    ) -> Optional[CachedAnswer]:
        """The best cached result dominating ``(family, eps, delta)``, or None.

        Consults :meth:`find_hot` first (unless the caller just did: ``hot``
        false); a hot hit skips the disk scan entirely.  An entry whose
        payload turns out unreadable (corruption, concurrent eviction) is
        skipped and the next-best dominating entry is tried.
        """
        found = self.find_hot(checksum, family=family, eps=eps, delta=delta) if hot else None
        if found is not None:
            return found
        candidates = self.entries(checksum)
        while candidates:
            rows = [(e.family, e.eps, e.delta) for e in candidates]
            index = select_dominating(rows, family=family, eps=eps, delta=delta)
            if index is None:
                return None
            entry = candidates.pop(index)
            try:
                found = CachedAnswer(entry, self.load(entry), self.hot)
            except (OSError, ValueError, KeyError):
                continue
            self.hot.put(_hot_key(checksum, family, eps, delta), found)
            return found
        return None

    def _most_samples(
        self, checksum: str, verdict: str, *, usable=None, same_graph=True, **request
    ) -> Optional[Tuple[CacheEntry, Path]]:
        """The one warm-start source scan: classify verdict, then snapshot
        present (and ``usable``, when given), then most samples wins."""
        best: Optional[Tuple[CacheEntry, Path]] = None
        for entry in self.entries(checksum):
            found = classify(
                entry.family,
                entry.eps,
                entry.delta,
                entry.seed,
                same_graph=same_graph,
                **request,
            )
            if found != verdict:
                continue
            path = self.snapshot_path(entry)
            if path is None or (usable is not None and not usable(path)):
                continue
            if best is None or entry.num_samples > best[0].num_samples:
                best = (entry, path)
        return best

    def find_refinable(
        self,
        checksum: str,
        *,
        family: str,
        eps: float,
        delta: float,
        seed: Optional[int],
    ) -> Optional[Tuple[CacheEntry, Path]]:
        """The best checkpoint-carrying entry refinable to ``(eps, delta)``.

        Called after :meth:`find` misses: among entries whose
        :func:`~repro.service.dominance.classify` verdict is ``refinable``
        (same adaptive family, same seed, too loose in at least one
        dimension) and that actually carry a snapshot, the one with the most
        accumulated samples wins — it leaves the least to draw.  Returns
        ``(entry, snapshot_path)`` or ``None``.
        """
        return self._most_samples(
            checksum, REFINABLE, family=family, eps=eps, delta=delta, seed=seed
        )

    def find_update_refinable(
        self,
        parent_checksum: str,
        *,
        family: str,
        eps: float,
        delta: float,
        seed: Optional[int],
    ) -> Optional[Tuple[CacheEntry, Path]]:
        """The best *parent-graph* entry that can serve a mutated-graph query.

        Called when the requested graph has no usable entries of its own but
        the catalog's lineage records it as ``parent_checksum`` plus a delta.
        An entry qualifies when :func:`~repro.service.dominance.classify`
        with ``same_graph=False`` says ``update_refinable`` (adaptive family,
        matching seed, known accuracy), it carries a session checkpoint,
        *and* that checkpoint holds the per-sample log the incremental
        estimator needs (``sample_log`` in the snapshot metadata — pre-log
        checkpoints restore fine but cannot be updated).  Most accumulated
        samples wins.  Returns ``(entry, snapshot_path)`` or ``None``.
        """
        from repro.session.snapshot import read_snapshot_meta

        def has_log(path: Path) -> bool:
            try:
                return bool(read_snapshot_meta(path).get("sample_log"))
            except (OSError, ValueError, KeyError):
                return False

        return self._most_samples(
            parent_checksum,
            UPDATE_REFINABLE,
            usable=has_log,
            same_graph=False,
            family=family,
            eps=eps,
            delta=delta,
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #
    def evict(
        self, checksum: Optional[str] = None, *, key: Optional[str] = None
    ) -> int:
        """Remove entries; returns how many were evicted.

        ``checksum`` limits eviction to one graph; ``key`` (with or without a
        checksum) to one entry.  With neither, the whole cache is cleared.
        Evicting also drops the affected hot-tier entries of *this* process;
        other processes' hot tiers age out within their TTL.
        """
        self.hot.invalidate(checksum)
        removed = 0
        for entry in self.entries(checksum):
            if key is not None and entry.key != key:
                continue
            entry_dir = self._cache_dir / _checksum_dirname(entry.graph_checksum)
            for path in (
                self._meta_path(entry_dir, entry.key),
                self._result_path(entry_dir, entry.key),
                self._snapshot_path(entry_dir, entry.key),
            ):
                try:
                    path.unlink()
                except OSError:
                    pass
            removed += 1
        # Drop directories left empty (missing-ok semantics throughout).
        if self._cache_dir.is_dir():
            for entry_dir in self._cache_dir.iterdir():
                if entry_dir.is_dir():
                    try:
                        entry_dir.rmdir()
                    except OSError:
                        pass
        return removed
