"""Cross-sample vectorized wavefront kernel: K balanced-bidirectional
searches advanced simultaneously.

The per-pair kernels (:mod:`repro.kernels.bidirectional`) already amortise
allocation, but every BFS *level* of every *pair* still pays a fixed number of
numpy dispatches (~1 µs each) on frontier arrays that are often tiny.  This
kernel removes that last per-pair overhead by advancing the frontiers of up to
``lanes`` pairs at once in structure-of-arrays form:

* mark/sigma state for all pairs lives in one :class:`~repro.kernels.scratch.
  ScratchSlab` — row ``lane`` holds the forward side, row ``lanes + lane`` the
  backward side, and ``row * n + vertex`` flat-indexes any cell, so one
  gather/scatter serves the whole batch;
* each round, every active lane expands its cheaper side (the same balanced
  rule as the per-pair kernel); lanes expanding the same side are processed
  together with one ``np.repeat``/gather/``np.add.at`` sequence over their
  *concatenated* frontiers;
* vertex/edge meets are reduced per lane with ``np.minimum.at``, and the
  edge-meet gather of one level is cached as the expansion gather of the
  next - the eager schedule: the rows of every settled frontier are read,
  where the per-pair kernel reads only those of a frontier it expands;
* finished pairs are *retired from the active set* each round and their
  sigma-weighted backward walks run lock-step across all retirees (one
  segmented weighted pick per walk step for the whole group).

The expansion schedule (side choices, levels, meets, termination) is a
deterministic function of the graph and the pair, so ``connected`` and
``length`` are *identical* to the per-pair bidirectional kernel
(``edges_touched`` is not: it also counts the rows of the frontiers settled
last, which the per-pair kernel never reads); the random picks consume the
generator differently (bulk draws instead of scalar draws).  The sampled path is still a uniformly random shortest
path — the estimator is statistically identical, which the distributional
tests against the reference samplers (``tests/reference_samplers.py``) pin
down — but the RNG stream differs from the per-pair kernels, so routing never
picks this kernel: only an explicit request or ``REPRO_KERNEL`` reaches it
(see :mod:`repro.kernels.abi`).
"""

from __future__ import annotations

import os
from typing import List, Optional

import numpy as np

from repro.kernels.scratch import ScratchSlab, gather_csr

__all__ = ["WavefrontSampler", "DEFAULT_SLAB_BUDGET_BYTES", "resolve_lanes"]

#: Combined mark+sigma slab budget used to size the lane count (bytes).
DEFAULT_SLAB_BUDGET_BYTES = 128 << 20

#: Hard lane-count bounds (the lower bound keeps degenerate graphs working,
#: the upper bound keeps per-round Python bookkeeping negligible).
MIN_LANES = 1
MAX_LANES = 1024

_BIG = np.int64(2**62)

_LANES_ENV = "REPRO_WAVEFRONT_LANES"


def resolve_lanes(num_vertices: int, requested: Optional[int] = None) -> int:
    """Number of concurrent search lanes for a graph of ``num_vertices``.

    Defaults to filling :data:`DEFAULT_SLAB_BUDGET_BYTES` (2 rows per lane of
    int64 marks + float64 sigmas = ``32 * n`` bytes per lane), clamped to
    ``[MIN_LANES, MAX_LANES]``.  ``requested`` (or the ``REPRO_WAVEFRONT_LANES``
    environment variable) overrides the budget-derived count but is still
    clamped.
    """
    if requested is None:
        env = os.environ.get(_LANES_ENV, "").strip()
        if env:
            try:
                requested = int(env)
            except ValueError:
                raise ValueError(f"invalid {_LANES_ENV}={env!r}: not an integer") from None
    if requested is not None:
        return max(MIN_LANES, min(int(requested), MAX_LANES))
    per_lane = 32 * max(int(num_vertices), 1)
    return max(MIN_LANES, min(DEFAULT_SLAB_BUDGET_BYTES // per_lane, MAX_LANES))


def _slice_parts(arr: np.ndarray, counts: np.ndarray) -> List[np.ndarray]:
    """Split ``arr`` into consecutive views of the given lengths.

    Equivalent to ``np.split(arr, np.cumsum(counts)[:-1])`` but without
    ``array_split``'s per-part overhead — these splits run once per BFS level
    per side, over up to ``lanes`` parts.
    """
    offs = np.empty(counts.size + 1, dtype=np.int64)
    offs[0] = 0
    np.cumsum(counts, out=offs[1:])
    return [arr[offs[j] : offs[j + 1]] for j in range(counts.size)]


def _segmented_pick(
    w: np.ndarray,
    seg_ord: np.ndarray,
    num_segments: int,
    rng: np.random.Generator,
    err: str,
) -> np.ndarray:
    """One weighted pick per segment, sharing a single uniform draw batch.

    ``seg_ord`` assigns every entry of ``w`` a non-decreasing segment ordinal
    in ``[0, num_segments)``.  Returns the picked *global* entry index per
    segment, chosen with probability proportional to ``w`` within the
    segment.  Zero-weight entries are dropped up front, so they can never be
    selected (not even through floating-point boundary ties); a segment whose
    weights are all zero raises ``RuntimeError(err)``.
    """
    keep = np.flatnonzero(w > 0.0)
    w = w[keep]
    seg_ord = seg_ord[keep]
    counts = np.bincount(seg_ord, minlength=num_segments)
    if not counts.all():
        raise RuntimeError(err)
    ends = np.cumsum(counts)
    cw = np.cumsum(w)
    tot_end = cw[ends - 1]
    offsets = np.empty_like(tot_end)
    offsets[0] = 0.0
    offsets[1:] = tot_end[:-1]
    target = offsets + rng.random(num_segments) * (tot_end - offsets)
    pick = np.searchsorted(cw, target, side="right")
    pick = np.minimum(np.maximum(pick, ends - counts), ends - 1)
    return keep[pick]


class WavefrontSampler:
    """Batch-native uniform shortest-path sampler (multi-pair wavefront).

    Duck-type compatible with the batch surface of
    :class:`~repro.kernels.BatchPathSampler`: ``sample_pairs`` takes arrays of
    sources/targets and returns the same flat-array ``SampleBatch``.  Batches
    larger than the lane count are processed in contiguous chunks.
    """

    def __init__(self, graph, *, lanes: Optional[int] = None, slab: Optional[ScratchSlab] = None) -> None:
        if graph.num_vertices < 2:
            raise ValueError("WavefrontSampler requires a graph with at least 2 vertices")
        self._graph = graph
        self._indptr = np.asarray(graph.indptr).astype(np.int64, copy=False)
        self._indices = np.asarray(graph.indices)
        self._n = int(graph.num_vertices)
        if slab is not None:
            if slab.num_vertices != self._n:
                raise ValueError("scratch slab size does not match the graph")
            self._slab = slab
        else:
            self._slab = ScratchSlab(self._n, resolve_lanes(self._n, lanes))

    # ------------------------------------------------------------------ #
    @property
    def graph(self):
        return self._graph

    @property
    def lanes(self) -> int:
        return self._slab.lanes

    @property
    def slab(self) -> ScratchSlab:
        return self._slab

    # ------------------------------------------------------------------ #
    def sample_batch(self, batch_size: int, rng: np.random.Generator):
        """Draw ``batch_size`` uniform distinct pairs (bulk draws) and sample
        one shortest path per pair."""
        k = int(batch_size)
        if k <= 0:
            raise ValueError("batch_size must be positive")
        from repro.sampling.rng import draw_vertex_pairs

        pairs = draw_vertex_pairs(self._n, k, rng)
        return self.sample_pairs(pairs[:, 0], pairs[:, 1], rng)

    def sample_pairs(self, sources, targets, rng: np.random.Generator):
        """Sample one uniform shortest path per (source, target) pair."""
        from repro.kernels.batch import _BatchAccumulator

        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape or sources.ndim != 1:
            raise ValueError("sources and targets must be 1-d arrays of equal length")
        n = self._n
        if sources.size and (
            int(sources.min()) < 0
            or int(sources.max()) >= n
            or int(targets.min()) < 0
            or int(targets.max()) >= n
        ):
            raise ValueError("source/target out of range")
        if np.any(sources == targets):
            raise ValueError("source and target must be distinct")
        k = int(sources.size)
        out = _BatchAccumulator(k)
        lanes = self._slab.lanes
        for lo in range(0, k, lanes):
            hi = min(lo + lanes, k)
            results = self._run_chunk(sources[lo:hi], targets[lo:hi], rng)
            for i, result in enumerate(results):
                out.record(lo + i, result)
        return out.finish(sources, targets)

    # ------------------------------------------------------------------ #
    def _run_chunk(self, src: np.ndarray, dst: np.ndarray, rng: np.random.Generator):
        """Advance one chunk of K <= lanes pairs to completion.

        Returns a list of ``(connected, length, internal_vertices, edges)``
        tuples in lane order, the same contract as the per-pair kernels.
        """
        indptr, indices, n = self._indptr, self._indices, self._n
        slab = self._slab
        KL = slab.lanes
        base = slab.begin_round()
        mark = slab.mark_flat
        sigma = slab.sigma_flat
        K = int(src.size)

        lanes64 = np.arange(K, dtype=np.int64)
        # Forward rows are [0, KL), backward rows are [KL, 2*KL).
        rows_f = lanes64
        rows_b = lanes64 + KL
        mark[rows_f * n + src] = base
        sigma[rows_f * n + src] = 1.0
        mark[rows_b * n + dst] = base
        sigma[rows_b * n + dst] = 1.0

        deg = [np.empty(K, dtype=np.int64), np.empty(K, dtype=np.int64)]
        deg[0][:] = indptr[src + 1] - indptr[src]
        deg[1][:] = indptr[dst + 1] - indptr[dst]
        lvl = [np.zeros(K, dtype=np.int64), np.zeros(K, dtype=np.int64)]
        best = np.full(K, -1, dtype=np.int64)
        edges = np.zeros(K, dtype=np.int64)
        fsize = [np.ones(K, dtype=np.int64), np.ones(K, dtype=np.int64)]

        fronts = [
            [src[i : i + 1] for i in range(K)],
            [dst[i : i + 1] for i in range(K)],
        ]
        levels: List[List[List[np.ndarray]]] = [
            [[src[i : i + 1]] for i in range(K)],
            [[dst[i : i + 1]] for i in range(K)],
        ]
        cached: List[List[Optional[tuple]]] = [[None] * K, [None] * K]

        results: List[Optional[tuple]] = [None] * K

        # Adjacent endpoints: resolved up front with one bulk gather, like the
        # per-pair kernel's sorted-row binary search (same edges accounting:
        # only the adjacent case charges the source-row scan).
        # gather_csr's int64 rows are cast back: every later gather here is in
        # the graph's dtype, and the lanes' concatenated rows are large.
        adj_nbrs, adj_degs = gather_csr(indptr, indices, src)
        adj_nbrs = adj_nbrs.astype(indices.dtype, copy=False)
        if adj_nbrs.size:
            seg = lanes64.repeat(adj_degs)
            hits = np.bincount(seg, weights=(adj_nbrs == dst[seg]), minlength=K) > 0
        else:
            hits = np.zeros(K, dtype=bool)
        for lane in np.flatnonzero(hits):
            results[lane] = (True, 1, [], int(deg[0][lane]))

        # Seed both sides' expansion caches with the root adjacency rows (two
        # bulk gathers for the whole chunk instead of two single-vertex
        # gathers per lane; the forward rows were gathered above anyway).
        bwd_nbrs, bwd_degs = gather_csr(indptr, indices, dst)
        bwd_nbrs = bwd_nbrs.astype(indices.dtype, copy=False)
        offs_f = np.empty(K + 1, dtype=np.int64)
        offs_f[0] = 0
        np.cumsum(adj_degs, out=offs_f[1:])
        offs_b = np.empty(K + 1, dtype=np.int64)
        offs_b[0] = 0
        np.cumsum(bwd_degs, out=offs_b[1:])
        for lane in range(K):
            cached[0][lane] = (adj_nbrs[offs_f[lane] : offs_f[lane + 1]], adj_degs[lane : lane + 1])
            cached[1][lane] = (bwd_nbrs[offs_b[lane] : offs_b[lane + 1]], bwd_degs[lane : lane + 1])

        active = np.flatnonzero(~hits).astype(np.int64)

        while active.size:
            # Retirement sweep (top of loop, like the per-pair kernel): a lane
            # stops once no shorter path can still be discovered, or once a
            # side exhausted its frontier.
            b = best[active]
            bound = (b >= 0) & (b <= lvl[0][active] + lvl[1][active] + 1)
            empty = (fsize[0][active] == 0) | (fsize[1][active] == 0)
            retiring = active[bound | empty]
            if retiring.size:
                self._finalize(retiring, src, dst, best, lvl, levels, edges, base, results, rng)
                active = active[~(bound | empty)]
                if not active.size:
                    break
            # Balanced expansion: each lane grows its cheaper side; lanes
            # expanding the same side are vectorized together.
            expand_fwd = deg[0][active] <= deg[1][active]
            for side in (0, 1):
                group = active[expand_fwd] if side == 0 else active[~expand_fwd]
                if group.size:
                    self._expand(
                        group, side, base, lvl, deg, fsize, fronts, levels, cached, edges, best
                    )

        return results

    # ------------------------------------------------------------------ #
    def _expand(self, group, side, base, lvl, deg, fsize, fronts, levels, cached, edges, best):
        """Advance one BFS level for every lane of ``group`` on ``side``."""
        indptr, indices, n = self._indptr, self._indices, self._n
        slab = self._slab
        KL = slab.lanes
        mark = slab.mark_flat
        sigma = slab.sigma_flat
        row_off = 0 if side == 0 else KL
        other_off = KL if side == 0 else 0

        front_list = fronts[side]
        cache_list = cached[side]
        # Every lane's expansion rows were gathered by the edge-meet pass of
        # its previous expansion (the chunk setup seeds the root rows), so
        # assembling the concatenated expansion is pure slicing.
        nbr_parts: List[np.ndarray] = []
        deg_parts: List[np.ndarray] = []
        totals = np.empty(group.size, dtype=np.int64)
        for j, lane in enumerate(group):
            nb, dg = cache_list[lane]
            nbr_parts.append(nb)
            deg_parts.append(dg)
            totals[j] = nb.size
        edges[group] += totals

        nz = totals > 0
        group_nz = group[nz]
        for lane in group[~nz]:
            # Dead end: empty frontier, no level advance (mirrors the
            # per-pair ``total == 0 -> continue`` branch).
            front_list[lane] = front_list[lane][:0]
            fsize[side][lane] = 0
        if not group_nz.size:
            return

        nbrs = np.concatenate([p for p in nbr_parts if p.size])
        degs = np.concatenate([d for j, d in enumerate(deg_parts) if totals[j]])
        front_concat = np.concatenate([front_list[lane] for lane in group_nz])
        front_sizes = np.asarray([front_list[lane].size for lane in group_nz], dtype=np.int64)
        # Per-lane flat row bases: one small multiply, then only adds on the
        # big concatenated arrays.
        rowbase = (group_nz + row_off) * n
        other_shift = (other_off - row_off) * n

        lvl[side][group_nz] += 1
        # Per-lane new level, addressable by lane id for the scatter below.
        lvl_map = np.zeros(KL, dtype=np.int64)
        lvl_map[group_nz] = lvl[side][group_nz]

        flat_nb = rowbase.repeat(totals[nz]) + nbrs
        fresh_mask = mark[flat_nb] < base
        fresh_flat = np.unique(flat_nb[fresh_mask])
        fresh_rows = fresh_flat // n
        fresh_lane = fresh_rows - row_off
        fresh_v = fresh_flat - fresh_rows * n

        # New frontiers: fresh_flat is sorted, hence lane-major with vertices
        # ascending inside each lane — the same order the per-pair kernel's
        # np.unique produced.
        counts = np.bincount(fresh_lane, minlength=KL)
        splits = _slice_parts(fresh_v, counts[group_nz])
        for j, lane in enumerate(group_nz):
            front_list[lane] = splits[j]
            fsize[side][lane] = splits[j].size

        if not fresh_flat.size:
            deg[side][group_nz] = 0
            return

        # Settle marks and accumulate sigma; a neighbour lies on the new level
        # iff it was unvisited before the level was processed, so the
        # freshness mask doubles as the sigma scatter mask (the accumulation
        # itself runs as a bincount over positions in the sorted fresh set,
        # which is much faster than a buffered ``np.add.at``).
        mark[fresh_flat] = base + lvl_map[fresh_lane]
        origin_sigma = sigma[rowbase.repeat(front_sizes) + front_concat]
        contrib = origin_sigma.repeat(degs)[fresh_mask]
        pos = np.searchsorted(fresh_flat, flat_nb[fresh_mask])
        sigma[fresh_flat] = np.bincount(pos, weights=contrib, minlength=fresh_flat.size)
        for j, lane in enumerate(group_nz):
            if splits[j].size:
                levels[side][lane].append(splits[j])

        # Vertex meets among the newly settled vertices (the other side's row
        # of the same (lane, vertex) cell is a fixed flat offset away).
        om = mark[fresh_flat + other_shift]
        met = om >= base
        if met.any():
            cand = lvl_map[fresh_lane[met]] + (om[met] - base)
            buf = np.full(KL, _BIG, dtype=np.int64)
            np.minimum.at(buf, fresh_lane[met], cand)
            self._update_best(best, buf, group_nz)

        # Edge meets via the fresh vertices' adjacency rows; the gather is
        # cached as the next expansion of this side (walked once, counted
        # twice — the per-pair kernel's cost-model accounting).
        starts = indptr[fresh_v]
        fdegs = indptr[fresh_v + 1] - starts
        ftotal = int(fdegs.sum())
        lane_totals = np.bincount(fresh_lane, weights=fdegs, minlength=KL).astype(np.int64)
        deg[side][group_nz] = lane_totals[group_nz]
        edges[group_nz] += lane_totals[group_nz]
        if ftotal:
            ends = np.cumsum(fdegs)
            idx = np.arange(ftotal, dtype=np.int64)
            idx += (starts - (ends - fdegs)).repeat(fdegs)
            fnbrs = indices[idx]
            other_base = fresh_flat - fresh_v + other_shift
            reach = mark[other_base.repeat(fdegs) + fnbrs]
            crossing = reach >= base
            if crossing.any():
                fn_lane = fresh_lane.repeat(fdegs)
                cand = lvl_map[fn_lane[crossing]] + 1 + (reach[crossing] - base)
                buf = np.full(KL, _BIG, dtype=np.int64)
                np.minimum.at(buf, fn_lane[crossing], cand)
                self._update_best(best, buf, group_nz)
        else:
            fnbrs = indices[:0]
        nbr_splits = _slice_parts(fnbrs, lane_totals[group_nz])
        deg_splits = _slice_parts(fdegs, counts[group_nz])
        for j, lane in enumerate(group_nz):
            cache_list[lane] = (nbr_splits[j], deg_splits[j])

    @staticmethod
    def _update_best(best, buf, group):
        found = buf[group]
        has = found < _BIG
        cur = best[group]
        merged = np.where(
            has, np.where(cur < 0, found, np.minimum(cur, found)), cur
        )
        best[group] = merged

    # ------------------------------------------------------------------ #
    def _finalize(self, retiring, src, dst, best, lvl, levels, edges, base, results, rng):
        """Choose cuts for the retiring lanes and run their walks lock-step.

        Disconnected lanes are recorded immediately.  The connected lanes
        split into a vertex-cut and an edge-cut group; each group's weighted
        cut choice runs as *one* segmented pick over the lanes' concatenated
        candidate sets, and all backward walks then advance together.
        """
        indptr, indices, n = self._indptr, self._indices, self._n
        slab = self._slab
        KL = slab.lanes
        mark = slab.mark_flat
        sigma = slab.sigma_flat

        # Per connected lane: (lane, length, k or ls, lt, candidate array).
        v_cut = []
        e_cut = []
        for lane in retiring:
            lane = int(lane)
            length = int(best[lane])
            if length < 0:
                results[lane] = (False, 0, [], int(edges[lane]))
                continue
            ls = int(lvl[0][lane])
            lt = int(lvl[1][lane])
            lane_levels = levels[0][lane]
            if length <= ls + lt:
                # Vertex cut at a fixed split position k.
                k = min(ls, length)
                if length - k > lt:
                    k = length - lt
                settled = lane_levels[k] if k < len(lane_levels) else lane_levels[0][:0]
                if settled.size == 0:  # pragma: no cover - defensive
                    raise RuntimeError("wavefront search found no cut vertices")
                v_cut.append((lane, length, k, settled))
            else:
                # Edge cut between the deepest settled levels of the two sides.
                us = lane_levels[ls] if ls < len(lane_levels) else lane_levels[0][:0]
                if us.size == 0:  # pragma: no cover - defensive
                    raise RuntimeError("wavefront search found no cut edges")
                e_cut.append((lane, length, ls, lt, us))

        walk_rows: List[int] = []
        walk_starts: List[int] = []
        plans = []

        def plan(lane, length, fwd_start, fwd_depth, bwd_start, bwd_depth, mids):
            fwd_item = bwd_item = None
            if fwd_depth > 1:
                fwd_item = len(walk_rows)
                walk_rows.append(lane)
                walk_starts.append(fwd_start)
            if bwd_depth > 1:
                bwd_item = len(walk_rows)
                walk_rows.append(lane + KL)
                walk_starts.append(bwd_start)
            plans.append((lane, length, mids, fwd_item, bwd_item))

        if v_cut:
            lanes_a = np.asarray([p[0] for p in v_cut], dtype=np.int64)
            sizes = np.asarray([p[3].size for p in v_cut], dtype=np.int64)
            cands = np.concatenate([p[3] for p in v_cut]) if len(v_cut) > 1 else v_cut[0][3]
            flat_f = (lanes_a * n).repeat(sizes) + cands
            flat_b = flat_f + KL * n
            # The cut must sit at backward level (length - k); everything else
            # in the settled set weighs zero.
            want = np.asarray([base + (p[1] - p[2]) for p in v_cut], dtype=np.int64)
            w = sigma[flat_f] * sigma[flat_b] * (mark[flat_b] == want.repeat(sizes))
            ord_per = np.arange(lanes_a.size, dtype=np.int64).repeat(sizes)
            pick = _segmented_pick(
                w, ord_per, lanes_a.size, rng, "wavefront search found no cut vertices"
            )
            cuts = cands[pick]
            for j, (lane, length, k, _settled) in enumerate(v_cut):
                cut = int(cuts[j])
                s = int(src[lane])
                t = int(dst[lane])
                mids = [cut] if cut != s and cut != t else []
                plan(lane, length, cut, k, cut, length - k, mids)

        if e_cut:
            lanes_a = np.asarray([p[0] for p in e_cut], dtype=np.int64)
            sizes = np.asarray([p[4].size for p in e_cut], dtype=np.int64)
            us_concat = np.concatenate([p[4] for p in e_cut]) if len(e_cut) > 1 else e_cut[0][4]
            starts_r = indptr[us_concat]
            u_degs = indptr[us_concat + 1] - starts_r
            total = int(u_degs.sum())
            rends = np.cumsum(u_degs)
            idx = np.arange(total, dtype=np.int64)
            idx += (starts_r - (rends - u_degs)).repeat(u_degs)
            u_nbrs = indices[idx]
            u_rep = us_concat.repeat(u_degs)
            ord_per_u = np.arange(lanes_a.size, dtype=np.int64).repeat(sizes)
            ord_per = ord_per_u.repeat(u_degs)
            rowbase = lanes_a * n
            flat_b = rowbase[ord_per] + KL * n + u_nbrs
            want = np.asarray([base + p[3] for p in e_cut], dtype=np.int64)
            w = sigma[rowbase[ord_per] + u_rep] * sigma[flat_b] * (mark[flat_b] == want[ord_per])
            pick = _segmented_pick(
                w, ord_per, lanes_a.size, rng, "wavefront search found no cut edges"
            )
            for j, (lane, length, ls, lt, _us) in enumerate(e_cut):
                u = int(u_rep[pick[j]])
                v = int(u_nbrs[pick[j]])
                s = int(src[lane])
                t = int(dst[lane])
                mids = [x for x in (u, v) if x != s and x != t]
                plan(lane, length, u, ls, v, lt, mids)

        walks = self._walk_group(
            np.asarray(walk_rows, dtype=np.int64),
            np.asarray(walk_starts, dtype=np.int64),
            base,
            rng,
        )

        for lane, length, mids, fwd_item, bwd_item in plans:
            s = int(src[lane])
            t = int(dst[lane])
            internal: List[int] = []
            if fwd_item is not None:
                internal.extend(walks[fwd_item][::-1])
            internal.extend(mids)
            if bwd_item is not None:
                internal.extend(walks[bwd_item])
            internal = [x for x in internal if x != s and x != t]
            results[lane] = (True, length, internal, int(edges[lane]))

    def _walk_group(self, rows, starts, base, rng):
        """Sigma-weighted backward walks for a group of (row, start) items.

        All walks advance one step per iteration: one gather over the
        concatenated predecessor candidates, one segmented weighted pick for
        the whole group.  Returns one list of vertices per item, in walk
        order (from the cut towards the root, exclusive of both).
        """
        indptr, indices, n = self._indptr, self._indices, self._n
        mark = self._slab.mark_flat
        sigma = self._slab.sigma_flat

        outs: List[List[int]] = [[] for _ in range(rows.size)]
        if not rows.size:
            return outs
        cur = starts.copy()
        depth = mark[rows * n + cur] - base
        alive = np.flatnonzero(depth > 1)
        while alive.size:
            c = cur[alive]
            r = rows[alive]
            st = indptr[c]
            dg = indptr[c + 1] - st
            total = int(dg.sum())
            ends = np.cumsum(dg)
            idx = np.arange(total, dtype=np.int64)
            idx += (st - (ends - dg)).repeat(dg)
            nbrs = indices[idx]
            seg = np.arange(alive.size, dtype=np.int64).repeat(dg)
            flat = (r * n)[seg] + nbrs
            want = base + depth[alive] - 1
            w = sigma[flat] * (mark[flat] == want[seg])
            pick = _segmented_pick(
                w, seg, alive.size, rng, "inconsistent sigma values during backtracking"
            )
            chosen = nbrs[pick]
            for j, item in enumerate(alive):
                outs[item].append(int(chosen[j]))
            cur[alive] = chosen
            depth[alive] -= 1
            alive = alive[depth[alive] > 1]
        return outs
