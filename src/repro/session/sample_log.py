"""Per-sample path log: what makes a session checkpoint *update-refinable*.

The aggregate :class:`~repro.core.state_frame.StateFrame` is a sufficient
statistic for the static algorithm — per-vertex counters plus a sample count —
but it cannot answer the question an evolving graph poses: *which* of the
accumulated samples did a given edge mutation invalidate?  The
:class:`SampleLog` keeps exactly the per-sample facts needed to answer it:

* ``sources``/``targets`` — the sampled vertex pair,
* ``lengths`` — the hop distance ``d(s, t)`` at sampling time (``-1`` for a
  disconnected pair; an *adjacent* pair has length 1 and an empty interior,
  which is why the interior alone cannot stand in for the distance),
* ``vertices``/``indptr`` — the interior path vertices in CSR layout (the
  vertices whose counters the sample incremented).

With these, :mod:`repro.evolve.incremental` runs the exact invalidation test
(a deleted edge lay on some shortest ``s``-``t`` path; an inserted edge
created a ``<=``-length one) and performs *surgery*: subtract the stale
contributions, re-sample the same pairs on the mutated graph, and
:meth:`replace` the log rows in place — keeping the log consistent with the
frame at all times.

Appending is O(1) per batch: the log keeps appended batches as chunks in a
pending list and joins them onto its arrays on the first read, so a run's
logging cost is linear in its samples.  :meth:`replace` rebuilds the
contribution layout with per-element segment masks (two ``bincount`` and one
XOR scan each), not a per-segment gather.

The log serializes into the session snapshot as five extra float64 arrays
(``log_*``; exact for values below 2**53), so old snapshots restore fine
without one — they are simply not update-refinable.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["SampleLog"]

#: Snapshot array names, in file order (``meta["sample_log"]`` marks presence).
SNAPSHOT_ARRAYS = (
    "log_sources",
    "log_targets",
    "log_lengths",
    "log_indptr",
    "log_vertices",
)


def _segment_gather(values: np.ndarray, indptr: np.ndarray, sample_idx: np.ndarray) -> np.ndarray:
    """Concatenate the CSR segments of ``sample_idx``, in the given order."""
    counts = np.diff(indptr)[sample_idx]
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=values.dtype)
    # offsets of every gathered element into `values`: segment start repeated
    # per element, plus a within-segment ramp (0, 1, ..., count-1 per segment).
    starts = np.repeat(indptr[sample_idx], counts)
    ramp = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return values[starts + ramp]


def _segment_mask(indptr: np.ndarray, sample_idx: np.ndarray) -> np.ndarray:
    """Per element of the CSR values: does it lie in a segment of ``sample_idx``?

    ``sample_idx`` must be distinct, so the chosen segments are disjoint.  Each
    one toggles the mask at its start and again at its end; an empty segment,
    or the end of one chosen segment that is the start of the next, toggles
    twice and so not at all.
    """
    size = int(indptr[-1]) + 1
    bounds = np.bincount(indptr[sample_idx], minlength=size) + np.bincount(
        indptr[sample_idx + 1], minlength=size
    )
    return np.logical_xor.accumulate((bounds[:-1] & 1).astype(bool))


class SampleLog:
    """Append-only per-sample record of one session's sampled paths.

    :meth:`append_batch` is O(1): it keeps the batch's arrays in a pending
    list.  The first read after appends (an array attribute,
    :meth:`contributions_of`, :meth:`replace`, :meth:`snapshot_arrays`) joins
    the pending batches onto the log once; :attr:`num_samples` sums the
    pending counts without joining.
    """

    __slots__ = (
        "_sources", "_targets", "_lengths", "_indptr", "_vertices", "_pending", "_pending_samples",
    )

    def __init__(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        lengths: np.ndarray,
        indptr: np.ndarray,
        vertices: np.ndarray,
    ) -> None:
        self._sources = np.asarray(sources, dtype=np.int64)
        self._targets = np.asarray(targets, dtype=np.int64)
        self._lengths = np.asarray(lengths, dtype=np.int64)
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._vertices = np.asarray(vertices, dtype=np.int64)
        self._pending: List[tuple] = []
        self._pending_samples = 0
        k = self._sources.size
        if self._targets.size != k or self._lengths.size != k:
            raise ValueError("sample log arrays disagree on the sample count")
        if self._indptr.size != k + 1 or int(self._indptr[-1]) != self._vertices.size:
            raise ValueError("sample log contribution layout is inconsistent")

    @classmethod
    def empty(cls) -> "SampleLog":
        return cls(
            sources=np.zeros(0, np.int64),
            targets=np.zeros(0, np.int64),
            lengths=np.zeros(0, np.int64),
            indptr=np.zeros(1, np.int64),
            vertices=np.zeros(0, np.int64),
        )

    # ------------------------------------------------------------------ #
    @property
    def sources(self) -> np.ndarray:
        self._join()
        return self._sources

    @property
    def targets(self) -> np.ndarray:
        self._join()
        return self._targets

    @property
    def lengths(self) -> np.ndarray:
        self._join()
        return self._lengths

    @property
    def indptr(self) -> np.ndarray:
        self._join()
        return self._indptr

    @property
    def vertices(self) -> np.ndarray:
        self._join()
        return self._vertices

    @property
    def num_samples(self) -> int:
        return int(self._sources.size) + self._pending_samples

    def contributions_of(self, i: int) -> np.ndarray:
        """Interior path vertices of sample ``i`` (a view)."""
        return self.vertices[self.indptr[i] : self.indptr[i + 1]]

    def contributions_concat(self, sample_idx: np.ndarray) -> np.ndarray:
        """All interior vertices of the given samples, concatenated."""
        return _segment_gather(self.vertices, self.indptr, np.asarray(sample_idx, np.int64))

    # ------------------------------------------------------------------ #
    def append_batch(self, batch) -> None:
        """Log one :class:`~repro.kernels.batch.SampleBatch` of fresh samples.

        The batch's arrays are kept, not copied, until the next read joins
        them; a batch must not change after it is logged (samplers return
        fresh arrays per batch).
        """
        self._pending.append(
            (
                batch.sources,
                batch.targets,
                batch.connected,
                batch.lengths,
                batch.contrib_indptr,
                batch.contrib_vertices,
            )
        )
        self._pending_samples += batch.num_samples

    def _join(self) -> None:
        """Concatenate the pending batches onto the log arrays, once."""
        if not self._pending:
            return
        sources, targets, connected, lengths, indptrs, vertices = zip(*self._pending)
        tails, offset = [], int(self._indptr[-1])
        for indptr in indptrs:
            tails.append(np.asarray(indptr[1:], np.int64) + offset)
            offset += int(indptr[-1])
        self._sources = np.concatenate([self._sources, *sources], dtype=np.int64)
        self._targets = np.concatenate([self._targets, *targets], dtype=np.int64)
        fresh_lengths = np.where(
            np.concatenate(connected, dtype=bool), np.concatenate(lengths, dtype=np.int64), -1
        )
        self._lengths = np.concatenate([self._lengths, fresh_lengths])
        self._indptr = np.concatenate([self._indptr, *tails])
        self._vertices = np.concatenate([self._vertices, *vertices], dtype=np.int64)
        self._pending, self._pending_samples = [], 0

    def replace(self, sample_idx: np.ndarray, batch) -> None:
        """Overwrite the logged rows ``sample_idx`` with re-sampled paths.

        ``batch`` must hold one sample per index, in the same order and for
        the same (source, target) pairs — the incremental estimator re-samples
        the *pair*, never swaps it, so only lengths and interiors change.  The
        indices must be distinct.
        """
        sample_idx = np.asarray(sample_idx, dtype=np.int64)
        if sample_idx.size != batch.num_samples:
            raise ValueError("replacement batch size does not match the index set")
        if sample_idx.size == 0:
            return
        order = np.argsort(sample_idx, kind="stable")
        if np.any(sample_idx[order[1:]] == sample_idx[order[:-1]]):
            raise ValueError("replacement indices must be distinct")
        self._join()
        if not (
            np.array_equal(self._sources[sample_idx], np.asarray(batch.sources, np.int64))
            and np.array_equal(self._targets[sample_idx], np.asarray(batch.targets, np.int64))
        ):
            raise ValueError("replacement batch pairs do not match the logged pairs")
        self._lengths[sample_idx] = np.where(
            np.asarray(batch.connected, dtype=bool),
            np.asarray(batch.lengths, dtype=np.int64),
            np.int64(-1),
        )
        batch_indptr = np.asarray(batch.contrib_indptr, np.int64)
        fresh = np.asarray(batch.contrib_vertices, np.int64)
        sample_idx = sample_idx[order]
        if np.any(order[1:] < order[:-1]):
            # The batch's paths in index order, as the new layout holds them.
            fresh = _segment_gather(fresh, batch_indptr, order)
        counts = np.diff(self._indptr)
        counts[sample_idx] = np.diff(batch_indptr)[order]
        new_indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=new_indptr[1:])
        new_vertices = np.empty(int(new_indptr[-1]), dtype=np.int64)
        replaced = _segment_mask(new_indptr, sample_idx)
        new_vertices[replaced] = fresh
        new_vertices[~replaced] = self._vertices[~_segment_mask(self._indptr, sample_idx)]
        self._indptr = new_indptr
        self._vertices = new_vertices

    # ------------------------------------------------------------------ #
    # Snapshot round-trip
    # ------------------------------------------------------------------ #
    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """The log as the named snapshot arrays (float64-coerced on write)."""
        self._join()
        return {
            "log_sources": self._sources,
            "log_targets": self._targets,
            "log_lengths": self._lengths,
            "log_indptr": self._indptr,
            "log_vertices": self._vertices,
        }

    @classmethod
    def from_snapshot_arrays(cls, arrays: Dict[str, np.ndarray]) -> "SampleLog":
        """Rebuild a log from snapshot arrays (raises ``KeyError`` if absent)."""
        return cls(
            sources=arrays["log_sources"].astype(np.int64),
            targets=arrays["log_targets"].astype(np.int64),
            lengths=arrays["log_lengths"].astype(np.int64),
            indptr=arrays["log_indptr"].astype(np.int64),
            vertices=arrays["log_vertices"].astype(np.int64),
        )
