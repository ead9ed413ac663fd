"""State frames: the unit of aggregation in the parallel algorithms.

A *state frame* (SF) is the pair ``S = (tau, c~)`` of the number of samples
taken and the per-vertex path counters (Section III-B of the paper).  State
frames form a commutative monoid under element-wise addition, which is exactly
the property the MPI reduction and the epoch-based aggregation rely on.

Between ranks a frame travels in the smaller of two forms
(:meth:`StateFrame.for_wire`): dense, one float64 per vertex, or — when fewer
than a third of its counters are nonzero — as a :class:`SparseFrame` of
``(index, count)`` arrays.  The counters are integers, so every sum of either
form is the dense sum bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SparseFrame", "StateFrame"]


@dataclass
class StateFrame:
    """Sampling state ``(tau, c~)`` of one thread/process/epoch.

    Attributes
    ----------
    num_samples:
        Number of vertex pairs sampled (``tau``), including pairs that turned
        out to be disconnected or adjacent.
    counts:
        float64 array of per-vertex path counts ``c~``.
    edges_touched:
        Total adjacency entries scanned while producing this frame; only used
        for performance accounting, not by the algorithm itself.
    """

    num_samples: int
    counts: np.ndarray
    edges_touched: int = 0

    # ------------------------------------------------------------------ #
    @classmethod
    def zeros(cls, num_vertices: int) -> "StateFrame":
        """An empty state frame for a graph with ``num_vertices`` vertices."""
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        return cls(num_samples=0, counts=np.zeros(num_vertices, dtype=np.float64))

    def copy(self) -> "StateFrame":
        """Deep copy (used for the snapshot taken before an MPI reduction)."""
        return StateFrame(
            num_samples=self.num_samples,
            counts=self.counts.copy(),
            edges_touched=self.edges_touched,
        )

    def reset(self) -> None:
        """Zero the frame in place (frame reuse across epochs)."""
        self.num_samples = 0
        self.edges_touched = 0
        self.counts.fill(0.0)

    @property
    def num_vertices(self) -> int:
        return int(self.counts.size)

    @property
    def is_empty(self) -> bool:
        return self.num_samples == 0

    # ------------------------------------------------------------------ #
    def record_sample(self, internal_vertices: np.ndarray, *, edges_touched: int = 0) -> None:
        """Account one sampled path: bump ``tau`` and the counters of the
        internal vertices of the path (which may be empty)."""
        self.num_samples += 1
        self.edges_touched += int(edges_touched)
        if internal_vertices is not None and len(internal_vertices) > 0:
            # Internal vertices of a simple path are distinct, so += suffices.
            self.counts[np.asarray(internal_vertices, dtype=np.int64)] += 1.0

    def record_batch(self, batch) -> None:
        """Account one :class:`~repro.kernels.batch.SampleBatch` of paths.

        Equivalent to calling :meth:`record_sample` once per sample of the
        batch (the counters are integer-valued, so the accumulation order
        does not change the float result), but performs a single vectorized
        ``np.add.at`` over the batch's flat contribution arrays.
        """
        self.num_samples += batch.num_samples
        self.edges_touched += int(batch.edges_touched.sum())
        vertices = batch.contrib_vertices
        if vertices.size > 0:
            np.add.at(self.counts, vertices, 1.0)

    def add_into(self, other: "StateFrame | SparseFrame") -> "StateFrame":
        """In-place accumulate ``other`` (dense or sparse) into ``self`` and return ``self``."""
        if other.num_vertices != self.num_vertices:
            raise ValueError("cannot aggregate state frames of different sizes")
        self.num_samples += other.num_samples
        self.edges_touched += other.edges_touched
        if isinstance(other, SparseFrame):
            np.add.at(self.counts, other.index, other.count)
        else:
            self.counts += other.counts
        return self

    def for_wire(self) -> "StateFrame | SparseFrame":
        """The form this frame travels in: a :class:`SparseFrame` of its
        nonzero counters when they are fewer than a third of the vertices,
        else the frame itself."""
        index = np.flatnonzero(self.counts)
        if 3 * index.size >= self.counts.size:
            return self
        return SparseFrame(self.num_vertices, self.num_samples, index, self.counts[index], self.edges_touched)

    def __add__(self, other: "StateFrame") -> "StateFrame":
        result = self.copy()
        return result.add_into(other)

    def __iadd__(self, other: "StateFrame") -> "StateFrame":
        return self.add_into(other)

    # ------------------------------------------------------------------ #
    def scalar_state(self) -> dict:
        """The frame's scalar fields as a plain dict (snapshot metadata).

        The counts array travels separately (raw float64 bytes in the
        snapshot's array section); pairing this dict with the array via
        :meth:`from_scalar_state` reproduces the frame exactly.
        """
        return {
            "num_samples": int(self.num_samples),
            "edges_touched": int(self.edges_touched),
        }

    @classmethod
    def from_scalar_state(cls, state: dict, counts: np.ndarray) -> "StateFrame":
        """Rebuild a frame from :meth:`scalar_state` output plus its counts."""
        return cls(
            num_samples=int(state["num_samples"]),
            counts=np.asarray(counts, dtype=np.float64),
            edges_touched=int(state.get("edges_touched", 0)),
        )

    # ------------------------------------------------------------------ #
    def betweenness_estimates(self) -> np.ndarray:
        """Current normalised estimates ``b~(v) = c~(v) / tau``."""
        if self.num_samples == 0:
            return np.zeros_like(self.counts)
        return self.counts / float(self.num_samples)

    def serialized_bytes(self) -> int:
        """Number of bytes an MPI reduction of this frame transfers in dense form.

        This drives the communication-volume column of Table II: one float64
        per vertex plus the 8-byte sample counter.  A frame that travels
        sparse counts :meth:`SparseFrame.serialized_bytes` instead.
        """
        return int(self.counts.nbytes + 8)

    def __repr__(self) -> str:
        return (
            f"StateFrame(tau={self.num_samples}, n={self.counts.size}, "
            f"mass={float(self.counts.sum()):.1f})"
        )


@dataclass
class SparseFrame:
    """A state frame on the wire as its nonzero counters: ``count[i]`` paths through ``index[i]``.

    :meth:`StateFrame.for_wire` makes one; two sum by concatenation
    (:meth:`__add__`, an index may then repeat) while that holds fewer
    entries than a third of the vertices, else into a dense frame; one folds
    into a dense frame with ``np.add.at`` (:meth:`StateFrame.add_into`).
    """

    num_vertices: int
    num_samples: int
    index: np.ndarray
    count: np.ndarray
    edges_touched: int = 0

    def __add__(self, other: "SparseFrame") -> "SparseFrame | StateFrame":
        if other.num_vertices != self.num_vertices:
            raise ValueError("cannot aggregate state frames of different sizes")
        if 3 * (self.index.size + other.index.size) >= self.num_vertices:
            return StateFrame.zeros(self.num_vertices).add_into(self).add_into(other)
        return SparseFrame(
            self.num_vertices,
            self.num_samples + other.num_samples,
            np.concatenate([self.index, other.index]),
            np.concatenate([self.count, other.count]),
            self.edges_touched + other.edges_touched,
        )

    def serialized_bytes(self) -> int:
        """Bytes this frame transfers: both arrays plus the sample counter and the vertex count."""
        return int(self.index.nbytes + self.count.nbytes + 16)
