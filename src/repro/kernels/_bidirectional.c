/* Balanced bidirectional sigma-BFS path sampling, one batch of pairs per call
 * (repro_sample_batch), and the whole-graph BFS of graph/traversal.py and
 * graph/components.py (repro_sweep, at the end of the file), one source per call.
 *
 * The search is kernels/smallgraph.py's: the side whose frontier holds fewer
 * adjacency entries is scanned, one pass over its rows settles the next level
 * (sigma added in scan order) and lists the edges into the other search, and
 * the cut edges are sorted into the order a forward scan of a sorted frontier
 * lists them.  The numpy search sorts every level; this one keeps a level in
 * the order the scan found it, which only changes the order in which a
 * vertex's sigma is summed.  That order cannot change a bit while the path
 * counts are exact integers: a sum of non-negative integers is exact while
 * every partial sum stays below 2^53, and a partial sum of 2^53 or more rounds
 * to a final value of 2^53 or more, so a level whose largest sigma is below
 * 2^53 holds the exact sums, which are numpy's.  The first level of a side
 * whose largest sigma reaches 2^53 is summed again, its parents sorted, and
 * that side's levels are sorted from then on, as numpy's are.  Equivalence
 * with numpy's cut-edge order holds for CSR rows in increasing order, as the
 * adjacent-endpoints check and settle_level's one-row case assume.
 * The cut pick and both backward walks replicate numpy's pairwise `sum` and
 * kernels/weighted.py's `weighted_index` bit for bit, so a sample is the
 * numpy kernel's sample for the same uniforms.  Every random number comes from
 * the caller's numpy generator through the function pointers numpy publishes
 * (`bitgen_t`); the one thing re-implemented is the bounded integer draw of
 * `Generator.integers` (`bounded`).  kernels/compiled.py builds this file
 * (with -ffp-contract=off: a fused multiply-add would round differently),
 * checks the replicas against numpy before first use, validates the CSR arrays
 * and owns every buffer named in `State`.
 */
#include <stdint.h>
#include <string.h>

enum {
    ST_PATH = 0,         /* out = {level_s, level_t, edges_touched, cut edges} */
    ST_ADJACENT = 1,     /* out[2] = edges_touched */
    ST_DISCONNECTED = 2, /* out[2] = edges_touched */
    /* What stops a batch, as out[4]: */
    ST_GROW = 3,         /* out[3] cut edges do not fit `capacity`, or out[5]
                          * path vertices `contrib_capacity`: grow and resume */
    ST_BROKEN_LEVEL = 4, /* a cut edge ends above the other side's deepest level */
    ST_NO_PREDECESSOR = 5,
    ST_BAD_PAIR = 6      /* a given pair is not two distinct vertices */
};

/* numpy/random/bitgen.h: what `Generator.bit_generator.ctypes.bit_generator`
 * points to. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *);
    uint32_t (*next_uint32)(void *);
    double (*next_double)(void *);
    uint64_t (*next_raw)(void *);
} bitgen_t;

typedef struct {
    int64_t n;
    const int64_t *indptr;
    const void *indices;
    int64_t wide;     /* indices are int64, else uint32 */
    int64_t *mark[2]; /* ScratchPool.mark_a / mark_b */
    double *sigma[2]; /* ScratchPool.sigma_a / sigma_b */
    int64_t *buf[4];  /* n entries each: two frontiers, the level being settled, sort scratch */
    int64_t capacity; /* of keys, scratch and weights; at least the largest degree */
    int64_t *keys;    /* cut edge (u, v), u on the source's side, as u * n + v */
    int64_t *scratch;
    double *weights;
    int64_t contrib_capacity;
    int64_t *contrib; /* the internal vertices of a batch's paths, back to back */
    int64_t *out;     /* 6 entries */
} State;

#if defined(__GNUC__)
#define FORCE_INLINE static inline __attribute__((always_inline))
#else
#define FORCE_INLINE static inline
#endif

#define ENTRY(base, j) (wide ? ((const int64_t *)(base))[j] : (int64_t)((const uint32_t *)(base))[j])
#define IDX(j) ENTRY(st->indices, j)

/* numpy's DOUBLE_pairwise_sum over a contiguous array (what ndarray.sum() runs). */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* kernels/weighted.py: cdf = cumsum(w / total); cdf /= cdf[-1];
 * searchsorted(cdf, u, side="right"), clamped.  Overwrites w with the cdf. */
static int64_t weighted_index(double *w, int64_t n, double total, double u)
{
    double running = w[0] / total;
    w[0] = running;
    for (int64_t i = 1; i < n; i++) {
        running += w[i] / total;
        w[i] = running;
    }
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        const int64_t mid = lo + ((hi - lo) >> 1);
        if (u < w[mid] / running)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo < n ? lo : n - 1;
}

/* Ascending sort of `len` values below `limit`; `tmp` holds `len` entries. */
static void sort_below(int64_t *a, int64_t *tmp, int64_t len, int64_t limit)
{
    int64_t i = 1;
    while (i < len && a[i - 1] <= a[i])
        i++;
    if (i >= len)
        return;
    if (len <= 64) {
        for (i = 1; i < len; i++) {
            const int64_t x = a[i];
            int64_t j = i;
            for (; j > 0 && a[j - 1] > x; j--)
                a[j] = a[j - 1];
            a[j] = x;
        }
        return;
    }
    int64_t *src = a, *dst = tmp;
    for (int shift = 0; shift < 63 && ((limit - 1) >> shift) > 0; shift += 8) {
        int64_t start[256] = {0}, total = 0;
        for (i = 0; i < len; i++)
            start[(src[i] >> shift) & 255]++;
        for (int d = 0; d < 256; d++) {
            const int64_t c = start[d];
            start[d] = total;
            total += c;
        }
        for (i = 0; i < len; i++)
            dst[start[(src[i] >> shift) & 255]++] = src[i];
        int64_t *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != a)
        memcpy(a, src, (size_t)len * sizeof *a);
}

FORCE_INLINE int search_pair(State *st, int64_t base, int64_t source, int64_t target, const int wide)
{
    const int64_t n = st->n, *indptr = st->indptr;
    int64_t *out = st->out;

    /* Adjacent endpoints: searchsorted in the source's sorted row. */
    int64_t lo = indptr[source], hi = indptr[source + 1];
    while (lo < hi) {
        const int64_t mid = lo + ((hi - lo) >> 1);
        if (IDX(mid) < target)
            lo = mid + 1;
        else
            hi = mid;
    }
    int64_t volume[2] = {indptr[source + 1] - indptr[source], indptr[target + 1] - indptr[target]};
    out[2] = volume[0];
    if (lo < indptr[source + 1] && IDX(lo) == target)
        return ST_ADJACENT;

    int64_t *frontier[2] = {st->buf[0], st->buf[1]}, *fresh = st->buf[2];
    int64_t count[2] = {1, 1}, level[2] = {0, 0};
    int64_t ncut = 0;
    int side, broken = 0;
    int sorted[2] = {0, 0}; /* a level of this side reached 2^53: its levels are sorted */
    frontier[0][0] = source;
    frontier[1][0] = target;
    st->mark[0][source] = st->mark[1][target] = base;
    st->sigma[0][source] = st->sigma[1][target] = 1.0;
    out[2] = 0;
    if (!volume[0] || !volume[1]) /* an isolated endpoint */
        return ST_DISCONNECTED;

    for (;;) {
        /* Balanced expansion: scan the side whose frontier has fewer entries. */
        side = volume[0] <= volume[1] ? 0 : 1;
        int64_t *mark = st->mark[side];
        double *sigma = st->sigma[side];
        const int64_t *other = st->mark[1 - side];
        const int64_t stamp = base + level[side] + 1, deepest = base + level[1 - side];
        int64_t nfresh = 0;
        out[2] += volume[side];
        for (int64_t i = 0; i < count[side]; i++) {
            const int64_t u = frontier[side][i];
            const double su = sigma[u];
            for (int64_t j = indptr[u]; j < indptr[u + 1]; j++) {
                const int64_t v = IDX(j), mv = mark[v];
                if (mv >= base) {
                    /* Visited: a select, not a branch (adding 0.0 is exact). */
                    sigma[v] += mv == stamp ? su : 0.0;
                } else {
                    /* No vertex carries both marks, so only an unvisited
                     * neighbour is looked up on the other side. */
                    const int64_t om = other[v];
                    if (om >= base) {
                        broken |= om != deepest;
                        if (ncut < st->capacity)
                            st->keys[ncut] = side == 0 ? u * n + v : v * n + u;
                        ncut++;
                    } else if (!ncut) { /* after a cut edge the level is never read */
                        mark[v] = stamp;
                        sigma[v] = su;
                        fresh[nfresh++] = v;
                    }
                }
            }
        }
        if (ncut)
            break;
        if (!nfresh) /* this side's component is exhausted */
            return ST_DISCONNECTED;
        if (sorted[side])
            sort_below(fresh, st->buf[3], nfresh, n);
        double top = 0.0;
        volume[side] = 0;
        for (int64_t i = 0; i < nfresh; i++) {
            const int64_t v = fresh[i];
            volume[side] += indptr[v + 1] - indptr[v];
            top = sigma[v] > top ? sigma[v] : top;
        }
        if (top >= 0x1p53 && !sorted[side]) {
            /* The sums may be rounded: add them again in numpy's order. */
            sorted[side] = 1;
            for (int64_t i = 0; i < nfresh; i++)
                sigma[fresh[i]] = 0.0;
            sort_below(frontier[side], st->buf[3], count[side], n);
            for (int64_t i = 0; i < count[side]; i++) {
                const int64_t u = frontier[side][i];
                const double su = sigma[u];
                for (int64_t j = indptr[u]; j < indptr[u + 1]; j++) {
                    const int64_t v = IDX(j);
                    if (mark[v] == stamp)
                        sigma[v] += su;
                }
            }
            sort_below(fresh, st->buf[3], nfresh, n);
        }
        int64_t *swap = frontier[side];
        frontier[side] = fresh;
        fresh = swap;
        count[side] = nfresh;
        level[side]++;
    }

    out[0] = level[0];
    out[1] = level[1];
    out[3] = ncut;
    if (broken)
        return ST_BROKEN_LEVEL;
    if (ncut > st->capacity)
        return ST_GROW;
    /* The cut edges in the order a forward scan of a sorted frontier lists them. */
    sort_below(st->keys, st->scratch, ncut, n * n);
    return ST_PATH;
}

/* Sigma-weighted backward walk from `current` (at `depth`) towards the root of
 * `side`, one uniform per step; the vertices it passes go to path[at],
 * path[at + step], ... */
FORCE_INLINE int walk_back(State *st, const bitgen_t *rng, int side, int64_t base, int64_t current,
                           int64_t depth, int64_t *path, int64_t at, int step, const int wide)
{
    const int64_t *mark = st->mark[side];
    const double *sigma = st->sigma[side];
    int64_t *preds = st->scratch;
    double *weights = st->weights;
    for (; depth > 1; depth--) {
        const int64_t want = base + depth - 1;
        int64_t count = 0;
        for (int64_t j = st->indptr[current]; j < st->indptr[current + 1]; j++) {
            const int64_t w = IDX(j);
            if (mark[w] == want) {
                preds[count] = w;
                weights[count++] = sigma[w];
            }
        }
        double total = 0.0;
        if (count != 1 && (count == 0 || (total = pairwise_sum(weights, count)) <= 0.0))
            return ST_NO_PREDECESSOR;
        /* The draw a one-weight pick makes too, whatever it reads. */
        const double uniform = rng->next_double(rng->state);
        current = preds[count == 1 ? 0 : weighted_index(weights, count, total, uniform)];
        path[at] = current;
        at += step;
    }
    return ST_PATH;
}

/* After ST_PATH: pick the cut edge, walk back both ways; level_s + level_t
 * internal vertices to `path`, 1 + max(level_s - 1, 0) + max(level_t - 1, 0)
 * uniforms drawn. */
FORCE_INLINE int finish_pair(State *st, const bitgen_t *rng, int64_t base, int64_t *path, const int wide)
{
    const int64_t n = st->n, ls = st->out[0], lt = st->out[1], ncut = st->out[3];
    for (int64_t i = 0; i < ncut; i++)
        st->weights[i] = st->sigma[0][st->keys[i] / n] * st->sigma[1][st->keys[i] % n];
    const double total = pairwise_sum(st->weights, ncut);
    const int64_t key = st->keys[weighted_index(st->weights, ncut, total, rng->next_double(rng->state))];
    const int64_t u = key / n, v = key % n;
    /* Internal vertices in path order: the forward walk reversed, u, v, the
     * backward walk; u (v) is the source (target) itself on level 0. */
    if (ls > 0)
        path[ls - 1] = u;
    if (lt > 0)
        path[ls] = v;
    int status = walk_back(st, rng, 0, base, u, ls, path, ls - 2, -1, wide);
    if (status == ST_PATH)
        status = walk_back(st, rng, 1, base, v, lt, path, ls + 1, 1, wide);
    return status;
}

/* `Generator.integers(0, bound + 1)` for one value and bound < 2^32 - 1:
 * numpy's buffered_bounded_lemire_uint32 (distributions.c), which draws
 * nothing when bound is 0.  The 32-bit half a PCG64 keeps between calls is
 * next_uint32's business. */
static int64_t bounded(const bitgen_t *rng, const uint32_t bound)
{
    if (bound == 0)
        return 0;
    const uint32_t range = bound + 1;
    uint64_t m = (uint64_t)rng->next_uint32(rng->state) * range;
    if ((uint32_t)m < range) {
        const uint32_t threshold = (UINT32_MAX - bound) % range;
        while ((uint32_t)m < threshold)
            m = (uint64_t)rng->next_uint32(rng->state) * range;
    }
    return (int64_t)(m >> 32);
}

/* `block` holds a batch's five int64 arrays back to back: sources, targets,
 * lengths and edges_touched (k entries each), then contrib_indptr (k + 1). */
FORCE_INLINE int64_t sample_batch(State *st, const bitgen_t *rng, const int64_t first, const int64_t stop,
                                  const int64_t given, int64_t base, const int64_t span, int64_t *block,
                                  const int64_t k, const int wide)
{
    const int64_t n = st->n;
    int64_t *out = st->out, *sources = block, *targets = block + k, *lengths = block + 2 * k;
    int64_t *edges_touched = block + 3 * k, *contrib_indptr = block + 4 * k;
    for (int64_t i = first; i < stop; i++, base += span) {
        int64_t source, target, count = 0;
        if (i < given) {
            source = sources[i];
            target = targets[i];
            if ((uint64_t)source >= (uint64_t)n || (uint64_t)target >= (uint64_t)n || source == target) {
                out[4] = ST_BAD_PAIR;
                return i;
            }
        } else { /* sampling/base.py's sample_vertex_pair */
            source = sources[i] = bounded(rng, (uint32_t)(n - 1));
            target = bounded(rng, (uint32_t)(n - 2));
            target = targets[i] = target + (target >= source);
        }
        int status = search_pair(st, base, source, target, wide);
        if (status == ST_PATH || status == ST_GROW) {
            count = out[0] + out[1];
            out[5] = contrib_indptr[i] + count;
            if (out[5] > st->contrib_capacity)
                status = ST_GROW;
        }
        if (status == ST_PATH)
            status = finish_pair(st, rng, base, st->contrib + contrib_indptr[i], wide);
        if (status > ST_DISCONNECTED) {
            out[4] = status;
            return i;
        }
        lengths[i] = status == ST_DISCONNECTED ? 0 : count + 1;
        edges_touched[i] = out[2];
        contrib_indptr[i + 1] = contrib_indptr[i] + count;
    }
    return stop;
}

/* Samples first .. stop - 1 of a batch of k, into `block`: sample i searches on
 * mark base `base + (i - first) * span`, takes its pair from sources[i],
 * targets[i] when i < given and draws it there otherwise, and appends its
 * path's internal vertices to st->contrib at contrib_indptr[i]
 * (contrib_indptr[first] is the caller's); a sample is connected iff its
 * length is positive.  Returns `stop`, or the index of the sample that did not
 * finish, with the reason in out[4]: that sample's pair is in place and, after
 * ST_GROW, nothing else of it was drawn, so the caller makes room and resumes
 * at that index, the pair now given, on new mark bases. */
int64_t repro_sample_batch(State *st, const bitgen_t *rng, int64_t first, int64_t stop, int64_t given,
                           int64_t base, int64_t span, int64_t *block, int64_t k)
{
    return st->wide ? sample_batch(st, rng, first, stop, given, base, span, block, k, 1)
                    : sample_batch(st, rng, first, stop, given, base, span, block, k, 0);
}

/* The numpy replicas, exported for the self-check. */
double repro_pairwise_sum(const double *a, int64_t n)
{
    return pairwise_sum(a, n);
}

int64_t repro_weighted_index(double *w, int64_t n, double total, double u)
{
    return weighted_index(w, n, total, u);
}

int64_t repro_bounded(const bitgen_t *rng, uint32_t bound)
{
    return bounded(rng, bound);
}

/* Level-synchronous BFS of everything reachable from `source`.  A vertex is
 * unvisited iff mark[v] < 0; level k is stamped `stamp + k * step`, so stamp 0
 * with step 1 writes hop distances and step 0 writes one component id.  The
 * vertices reached go to `order` level after level, each level in increasing
 * id order, level k being order[offsets[k] .. offsets[k + 1]).  `order` and
 * `offsets` hold n + 1 entries, `scratch` n.
 *
 * Direction-optimizing (Beamer, Asanovic & Patterson, SC 2012): a level whose
 * frontier holds at least n / BOTTOM_UP_VERTICES vertices and more than
 * 1 / BOTTOM_UP_ENTRIES of the adjacency entries not yet settled (len(indices)
 * minus the rows of the levels already expanded) runs bottom-up: every
 * unvisited vertex, in id order, scans its own row up to the first neighbour
 * stamped with the frontier's stamp.  The hits are stamped after the scan (with
 * step 0 the frontier and the next level share a stamp), and the level comes
 * out in id order.  Every other level runs top-down, reading every row of its
 * frontier.  Both give the same marks and levels when the rows are symmetric
 * (an undirected graph) and every vertex marked on entry belongs to a
 * component marked whole, which holds for a fresh `mark` and for the labelling
 * of graph/components.py.  At most BOTTOM_UP_VERTICES levels of all the
 * searches on one `mark` run bottom-up, each reading O(n + m), so a whole
 * component labelling stays O(n + m).
 *
 * Returns the number of levels, or one of the codes below.  The arrays may
 * come straight from a file nobody validated (the diameter phase runs before
 * any sampler exists), so every row extent is checked against `num_entries`
 * and every neighbour id against n before it is used as an index.  A bottom-up
 * level reads the rows of unvisited vertices, reached or not, and stops a row
 * at its first hit, so which malformed entries a search meets depends on the
 * direction its levels take; it never reads outside the arrays. */
enum { SWEEP_BAD_ROW = -1, SWEEP_BAD_NEIGHBOUR = -2 };
enum { BOTTOM_UP_VERTICES = 24, BOTTOM_UP_ENTRIES = 14 };

FORCE_INLINE int64_t sweep(const int64_t n, const int64_t *indptr, const void *indices,
                           const int64_t num_entries, const int64_t source, int64_t *mark,
                           const int64_t stamp, const int64_t step, int64_t *order,
                           int64_t *scratch, int64_t *offsets, const int wide)
{
    int64_t head = 0, tail = 1, level = 0;
    /* Entry counts are unsigned: on malformed rows they only steer the
     * direction, and they must not overflow. */
    uint64_t unexplored = (uint64_t)num_entries, entries = 0;
    int counted = 0; /* whether `entries` holds the frontier's count */
    order[0] = source;
    mark[source] = stamp;
    offsets[0] = 0;
    while (head < tail) {
        const int64_t end = tail, current = stamp + level * step, next = current + step;
        offsets[++level] = end;
        int bottom_up = 0;
        if ((end - head) * BOTTOM_UP_VERTICES >= n) {
            if (!counted) /* only a frontier this large needs its entry count */
                for (int64_t i = head; i < end; i++)
                    entries += (uint64_t)indptr[order[i] + 1] - (uint64_t)indptr[order[i]];
            bottom_up = entries * BOTTOM_UP_ENTRIES > unexplored;
        }
        if (bottom_up) {
            unexplored = entries < unexplored ? unexplored - entries : 0;
            entries = 0;
            for (int64_t v = 0; v < n; v++) {
                if (mark[v] >= 0)
                    continue;
                const int64_t lo = indptr[v], hi = indptr[v + 1];
                if (lo < 0 || hi < lo || hi > num_entries)
                    return SWEEP_BAD_ROW;
                for (int64_t j = lo; j < hi; j++) {
                    const int64_t u = ENTRY(indices, j);
                    if ((uint64_t)u >= (uint64_t)n)
                        return SWEEP_BAD_NEIGHBOUR;
                    if (mark[u] == current) {
                        order[tail++] = v;
                        entries += (uint64_t)(hi - lo);
                        break;
                    }
                }
            }
            for (int64_t i = end; i < tail; i++)
                mark[order[i]] = next;
            head = end;
            counted = 1;
            continue;
        }
        uint64_t settled = 0;
        for (; head < end; head++) {
            const int64_t u = order[head], lo = indptr[u], hi = indptr[u + 1];
            if (lo < 0 || hi < lo || hi > num_entries)
                return SWEEP_BAD_ROW;
            settled += (uint64_t)(hi - lo);
            for (int64_t j = lo; j < hi; j++) {
                const int64_t v = ENTRY(indices, j);
                if ((uint64_t)v >= (uint64_t)n)
                    return SWEEP_BAD_NEIGHBOUR;
                /* Without a branch, which on a road network is mispredicted
                 * every third neighbour: v is written at the tail and stays
                 * there only if it was unvisited.  A vertex is stamped once,
                 * so tail <= n and order needs n + 1 entries. */
                const int64_t mv = mark[v];
                order[tail] = v;
                tail += mv < 0;
                mark[v] = mv < 0 ? next : mv;
            }
        }
        unexplored = settled < unexplored ? unexplored - settled : 0;
        entries = 0;
        counted = 0;
        sort_below(order + end, scratch, tail - end, n);
    }
    return level;
}

/* `source` is below n; `stamp` and `step` are not negative. */
int64_t repro_sweep(int64_t n, const int64_t *indptr, const void *indices, int64_t wide,
                    int64_t num_entries, int64_t source, int64_t *mark, int64_t stamp,
                    int64_t step, int64_t *order, int64_t *scratch, int64_t *offsets)
{
    return wide ? sweep(n, indptr, indices, num_entries, source, mark, stamp, step, order, scratch, offsets, 1)
                : sweep(n, indptr, indices, num_entries, source, mark, stamp, step, order, scratch, offsets, 0);
}
