"""Reference (pre-kernel) scalar samplers, kept verbatim for verification.

These are the original allocating implementations the pooled kernels in
:mod:`repro.kernels` replaced: every call allocates fresh O(n)
``distances``/``sigma`` arrays and walks adjacency rows with per-vertex
Python slicing.  They live with the tests, not in the package; they exist
so that

* the batch/scalar equivalence property tests can check the kernels against
  an independent implementation (same RNG stream, same sampled paths), and
* ``benchmarks/bench_kernels.py`` can measure the kernel speedup against the
  true legacy cost rather than against a shim that is itself kernel-backed.

Do not use these in drivers; they are an order of magnitude slower.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling.base import PathSample

__all__ = ["ReferenceBidirectionalSampler", "ReferenceUnidirectionalSampler"]


class _SearchSide:
    """State of one directional search (level-synchronous sigma-BFS)."""

    __slots__ = ("distances", "sigma", "frontier", "level", "frontier_degree")

    def __init__(self, n: int, root: int, root_degree: int) -> None:
        self.distances = np.full(n, -1, dtype=np.int64)
        self.sigma = np.zeros(n, dtype=np.float64)
        self.distances[root] = 0
        self.sigma[root] = 1.0
        self.frontier = np.array([root], dtype=np.int64)
        self.level = 0
        self.frontier_degree = int(root_degree)


class ReferenceBidirectionalSampler:
    """The original balanced bidirectional BFS sampler (allocating)."""

    def __init__(self, graph: CSRGraph) -> None:
        if graph.num_vertices < 2:
            raise ValueError("PathSampler requires a graph with at least 2 vertices")
        self._graph = graph

    def sample_path(self, source: int, target: int, rng: np.random.Generator) -> PathSample:
        graph = self._graph
        n = graph.num_vertices
        if not (0 <= source < n) or not (0 <= target < n):
            raise ValueError("source/target out of range")
        if source == target:
            raise ValueError("source and target must be distinct")
        indptr = graph.indptr
        indices = graph.indices

        fwd = _SearchSide(n, source, graph.degree(source))
        bwd = _SearchSide(n, target, graph.degree(target))
        edges_touched = 0
        best_length: Optional[int] = None

        # Special case: adjacent endpoints.
        if graph.has_edge(source, target):
            edges_touched += graph.degree(source)
            return PathSample(
                source=source,
                target=target,
                connected=True,
                length=1,
                internal_vertices=np.empty(0, dtype=np.int64),
                edges_touched=edges_touched,
            )

        while True:
            if best_length is not None and best_length <= fwd.level + bwd.level + 1:
                break
            if fwd.frontier.size == 0 or bwd.frontier.size == 0:
                break
            side, other = (fwd, bwd) if fwd.frontier_degree <= bwd.frontier_degree else (bwd, fwd)
            new_level = side.level + 1
            starts = indptr[side.frontier]
            stops = indptr[side.frontier + 1]
            degs = stops - starts
            total = int(np.sum(degs))
            edges_touched += total
            if total == 0:
                side.frontier = np.empty(0, dtype=np.int64)
                continue
            neighbors = np.concatenate(
                [indices[s:e] for s, e in zip(starts, stops)]
            ).astype(np.int64, copy=False)
            origins = np.repeat(side.frontier, degs)
            fresh_mask = side.distances[neighbors] == -1
            fresh = np.unique(neighbors[fresh_mask])
            if fresh.size > 0:
                side.distances[fresh] = new_level
            onlevel = side.distances[neighbors] == new_level
            if np.any(onlevel):
                np.add.at(side.sigma, neighbors[onlevel], side.sigma[origins[onlevel]])
            side.frontier = fresh
            side.level = new_level
            side.frontier_degree = int(np.sum(indptr[fresh + 1] - indptr[fresh])) if fresh.size else 0

            if fresh.size == 0:
                continue
            other_dist = other.distances[fresh]
            met = other_dist >= 0
            if np.any(met):
                candidate = int(np.min(new_level + other_dist[met]))
                if best_length is None or candidate < best_length:
                    best_length = candidate
            fresh_starts = indptr[fresh]
            fresh_stops = indptr[fresh + 1]
            fresh_neighbors = np.concatenate(
                [indices[s:e] for s, e in zip(fresh_starts, fresh_stops)]
            ).astype(np.int64, copy=False)
            edges_touched += int(fresh_neighbors.size)
            reachable = other.distances[fresh_neighbors]
            crossing = reachable >= 0
            if np.any(crossing):
                candidate = int(np.min(new_level + 1 + reachable[crossing]))
                if best_length is None or candidate < best_length:
                    best_length = candidate

        if best_length is None:
            return PathSample(
                source=source,
                target=target,
                connected=False,
                edges_touched=edges_touched,
            )

        length = int(best_length)
        cut_vertex, cut_edge = self._choose_cut(graph, fwd, bwd, length, rng)
        internal: List[int] = []
        if cut_vertex is not None:
            prefix = self._walk_to_root(graph, fwd, cut_vertex, rng)
            suffix = self._walk_to_root(graph, bwd, cut_vertex, rng)
            internal = prefix[::-1] + ([cut_vertex] if cut_vertex not in (source, target) else []) + suffix
        else:
            u, v = cut_edge  # type: ignore[misc]
            prefix = self._walk_to_root(graph, fwd, u, rng)
            suffix = self._walk_to_root(graph, bwd, v, rng)
            internal = prefix[::-1]
            if u not in (source, target):
                internal.append(u)
            if v not in (source, target):
                internal.append(v)
            internal.extend(suffix)

        internal_arr = np.asarray([x for x in internal if x not in (source, target)], dtype=np.int64)
        return PathSample(
            source=source,
            target=target,
            connected=True,
            length=length,
            internal_vertices=internal_arr,
            edges_touched=edges_touched,
        )

    # ------------------------------------------------------------------ #
    def _choose_cut(
        self,
        graph: CSRGraph,
        fwd: "_SearchSide",
        bwd: "_SearchSide",
        length: int,
        rng: np.random.Generator,
    ) -> Tuple[Optional[int], Optional[Tuple[int, int]]]:
        level_s, level_t = fwd.level, bwd.level
        if length <= level_s + level_t:
            k = min(level_s, length)
            if length - k > level_t:
                k = length - level_t
            candidates = np.flatnonzero(
                (fwd.distances == k) & (bwd.distances == length - k)
            )
            weights = fwd.sigma[candidates] * bwd.sigma[candidates]
            total = float(weights.sum())
            if candidates.size == 0 or total <= 0.0:  # pragma: no cover - defensive
                raise RuntimeError("bidirectional search found no cut vertices")
            choice = int(rng.choice(candidates, p=weights / total))
            return choice, None
        us = np.flatnonzero(fwd.distances == level_s)
        cut_edges: List[Tuple[int, int]] = []
        cut_weights: List[float] = []
        for u in us:
            nbrs = graph.neighbors(int(u)).astype(np.int64, copy=False)
            vs = nbrs[bwd.distances[nbrs] == level_t]
            for v in vs:
                cut_edges.append((int(u), int(v)))
                cut_weights.append(float(fwd.sigma[u] * bwd.sigma[v]))
        if not cut_edges:  # pragma: no cover - defensive
            raise RuntimeError("bidirectional search found no cut edges")
        weights_arr = np.asarray(cut_weights, dtype=np.float64)
        pick = int(rng.choice(len(cut_edges), p=weights_arr / weights_arr.sum()))
        return None, cut_edges[pick]

    @staticmethod
    def _walk_to_root(
        graph: CSRGraph, side: "_SearchSide", start: int, rng: np.random.Generator
    ) -> List[int]:
        path: List[int] = []
        current = int(start)
        while side.distances[current] > 1:
            nbrs = graph.neighbors(current).astype(np.int64, copy=False)
            preds = nbrs[side.distances[nbrs] == side.distances[current] - 1]
            weights = side.sigma[preds]
            total = float(weights.sum())
            if preds.size == 0 or total <= 0.0:  # pragma: no cover - defensive
                raise RuntimeError("inconsistent sigma values during backtracking")
            current = int(rng.choice(preds, p=weights / total))
            path.append(current)
        return path

    def sample(self, rng: np.random.Generator) -> PathSample:
        from repro.sampling.base import sample_vertex_pair

        s, t = sample_vertex_pair(self._graph.num_vertices, rng)
        return self.sample_path(s, t, rng)


class ReferenceUnidirectionalSampler:
    """The original truncated sigma-BFS sampler (allocating)."""

    def __init__(self, graph: CSRGraph) -> None:
        if graph.num_vertices < 2:
            raise ValueError("PathSampler requires a graph with at least 2 vertices")
        self._graph = graph

    def sample_path(self, source: int, target: int, rng: np.random.Generator) -> PathSample:
        graph = self._graph
        n = graph.num_vertices
        if not (0 <= source < n) or not (0 <= target < n):
            raise ValueError("source/target out of range")
        if source == target:
            raise ValueError("source and target must be distinct")
        indptr = graph.indptr
        indices = graph.indices

        distances = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.float64)
        distances[source] = 0
        sigma[source] = 1.0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        edges_touched = 0
        target_level = -1
        while frontier.size > 0:
            level += 1
            starts = indptr[frontier]
            stops = indptr[frontier + 1]
            degs = stops - starts
            total = int(np.sum(degs))
            edges_touched += total
            if total == 0:
                break
            neighbors = np.concatenate([indices[s:e] for s, e in zip(starts, stops)]).astype(
                np.int64, copy=False
            )
            origins = np.repeat(frontier, degs)
            fresh_mask = distances[neighbors] == -1
            fresh = np.unique(neighbors[fresh_mask])
            if fresh.size > 0:
                distances[fresh] = level
            onlevel = distances[neighbors] == level
            if np.any(onlevel):
                np.add.at(sigma, neighbors[onlevel], sigma[origins[onlevel]])
            if fresh.size == 0:
                break
            frontier = fresh
            if distances[target] == level:
                target_level = level
                break

        if distances[target] < 0:
            return PathSample(
                source=source,
                target=target,
                connected=False,
                edges_touched=edges_touched,
            )
        length = int(distances[target]) if target_level < 0 else target_level

        internal: List[int] = []
        current = target
        while distances[current] > 1:
            nbrs = graph.neighbors(current).astype(np.int64, copy=False)
            edges_touched += int(nbrs.size)
            preds = nbrs[distances[nbrs] == distances[current] - 1]
            weights = sigma[preds]
            total_weight = float(weights.sum())
            if total_weight <= 0.0:  # pragma: no cover - defensive
                raise RuntimeError("inconsistent sigma values during backtracking")
            pick = int(rng.choice(preds, p=weights / total_weight))
            internal.append(pick)
            current = pick
        internal.reverse()
        return PathSample(
            source=source,
            target=target,
            connected=True,
            length=length,
            internal_vertices=np.asarray(internal, dtype=np.int64),
            edges_touched=edges_touched,
        )

    def sample(self, rng: np.random.Generator) -> PathSample:
        from repro.sampling.base import sample_vertex_pair

        s, t = sample_vertex_pair(self._graph.num_vertices, rng)
        return self.sample_path(s, t, rng)
