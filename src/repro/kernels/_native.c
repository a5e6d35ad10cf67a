/* Native C kernels for the canonical path engine.
 *
 * Compiled at first use by repro/kernels/native_backend.py (system cc,
 * cached shared object) and driven through ctypes over the *same* flat
 * CSR buffers the pure-Python reference loops walk: int64 indptr /
 * indices, float64 weights, and the per-view dead-edge / dead-node
 * byte masks.  Every routine is a statement-for-statement emulation of
 * the reference backend (repro/kernels/python_backend.py): the same
 * lazy binary heap keyed by (distance, node index), the same canonical
 * (dist, index) tie rules, and counter accumulation at exactly the
 * same program points.  Bitwise output and counter parity therefore
 * needs no closed-form argument — both implementations execute the
 * same abstract instruction stream over IEEE-754 doubles (each label
 * is one `parent label + weight` add; compile without FP contraction).
 *
 * Counters are returned through out-parameters; the Python wrapper
 * flushes them into repro.perf.COUNTERS, keeping this file free of any
 * Python API dependency (it is plain C99, linked only against libm).
 * Functions return a non-negative status on success (0, the repair
 * outcome, or the path-count status) and a negative one on failure
 * (-1 allocation, -2 malformed input); the wrapper raises.  Inputs are
 * validated by the wrapper before any pointer crosses: these loops
 * trust their indices.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef unsigned char u8;

/* ---------------------------------------------------------------- *
 * Binary heap of (key, index) pairs ordered exactly like CPython's
 * heapq over (float, int) tuples: smaller key first, ties by smaller
 * index.  The order is total over distinct nodes, so the pop sequence
 * is a pure function of the pushed multiset — internal layout
 * differences from heapq cannot change which item each pop returns.
 *
 * Each pair is packed into one unsigned 128-bit integer (key bits in
 * the high half, node index in the low half) so the heap order is a
 * single branch-free integer compare instead of a two-branch tuple
 * compare — the sift loops are branch-misprediction-bound, and this
 * cuts the measured Dijkstra wall time by ~30%.  The packing is
 * order-exact because every key pushed here is a non-negative path
 * length (0.0, sums of non-negative weights, or +inf from repair's
 * unreachable-boundary offers; never NaN or -0.0), and non-negative
 * IEEE-754 doubles order identically to their raw bit patterns.
 * ---------------------------------------------------------------- */

#ifndef __SIZEOF_INT128__
#error "the native kernel backend needs a compiler with unsigned __int128 (gcc/clang)"
#endif

typedef unsigned __int128 hkey;

typedef struct {
    hkey *a;
    i64 len;
    i64 cap;
} heap;

static inline hkey
hpack(double key, i64 idx)
{
    union { double d; uint64_t u; } bits;
    bits.d = key;
    return ((hkey)bits.u << 64) | (uint64_t)idx;
}

static inline double
hkey_of(hkey x)
{
    union { double d; uint64_t u; } bits;
    bits.u = (uint64_t)(x >> 64);
    return bits.d;
}

static inline i64
hidx_of(hkey x)
{
    return (i64)(uint64_t)x;
}

static int
heap_push(heap *h, double key, i64 idx)
{
    if (h->len == h->cap) {
        i64 cap = h->cap ? h->cap * 2 : 64;
        hkey *a = (hkey *)realloc(h->a, (size_t)cap * sizeof(hkey));
        if (a == NULL)
            return -1;
        h->a = a;
        h->cap = cap;
    }
    hkey item = hpack(key, idx);
    i64 i = h->len++;
    while (i > 0) {
        i64 parent = (i - 1) >> 1;
        if (item >= h->a[parent])
            break;
        h->a[i] = h->a[parent];
        i = parent;
    }
    h->a[i] = item;
    return 0;
}

static hkey
heap_pop(heap *h)
{
    hkey top = h->a[0];
    h->len--;
    if (h->len > 0) {
        /* heapq-style: sift the hole down to a leaf picking the
         * smaller child with a branch-free select (when the right
         * sibling is out of range, a[child + 1] is a[len] — the
         * just-detached last element, initialized memory — and the
         * bounds bit masks the compare off), then sift the displaced
         * last element back up.  One compare per level instead of
         * two, same pop order. */
        hkey last = h->a[h->len];
        i64 i = 0;
        i64 child = 1;
        while (child < h->len) {
            child += (i64)((child + 1 < h->len) &
                           (h->a[child + 1] < h->a[child]));
            h->a[i] = h->a[child];
            i = child;
            child = 2 * i + 1;
        }
        while (i > 0) {
            i64 parent = (i - 1) >> 1;
            if (last >= h->a[parent])
                break;
            h->a[i] = h->a[parent];
            i = parent;
        }
        h->a[i] = last;
    }
    return top;
}

/* ---------------------------------------------------------------- *
 * Canonical Dijkstra — the reference lazy-heap loop.
 * ---------------------------------------------------------------- */

/* Core over caller-provided scratch so the batched driver can reuse
 * allocations across sources.  `want`/`n_targets < 0` means
 * exhaustive; otherwise `want` marks the distinct live non-source
 * targets and `remaining` counts them. */
static int
dijkstra_core(const i64 *indptr, const i64 *indices, const double *weights,
              i64 n, const u8 *edge_dead, const u8 *node_dead, i64 source,
              u8 *want, i64 remaining, double *dist, i64 *pred,
              double *best, heap *h, i64 *out_exhausted,
              i64 *out_relaxations, i64 *out_settled)
{
    i64 settled = 0;
    i64 relaxations = 0;
    i64 exhausted = 1;
    i64 tracking = want != NULL;

    for (i64 i = 0; i < n; i++) {
        dist[i] = INFINITY;
        pred[i] = -1;
        best[i] = INFINITY;
    }
    best[source] = 0.0;
    h->len = 0;
    if (heap_push(h, 0.0, source))
        return -1;

    while (h->len) {
        hkey top = heap_pop(h);
        i64 u = hidx_of(top);
        if (!isinf(dist[u]))
            continue;
        double d_u = hkey_of(top);
        dist[u] = d_u;
        settled++;
        if (tracking) {
            if (want[u]) {
                want[u] = 0;
                remaining--;
            }
            if (remaining == 0) {
                exhausted = h->len == 0;
                break;
            }
        }
        i64 stop = indptr[u + 1];
        for (i64 slot = indptr[u]; slot < stop; slot++) {
            i64 v = indices[slot];
            if (node_dead[v] || edge_dead[slot])
                continue;
            relaxations++;
            if (!isinf(dist[v]))
                continue;
            double candidate = d_u + weights[slot];
            if (candidate < best[v]) {
                best[v] = candidate;
                pred[v] = u;
                if (heap_push(h, candidate, v))
                    return -1;
            }
        }
    }
    *out_exhausted = exhausted;
    *out_relaxations += relaxations;
    *out_settled += settled;
    return 0;
}

int
repro_dijkstra(const i64 *indptr, const i64 *indices, const double *weights,
               i64 n, const u8 *edge_dead, const u8 *node_dead, i64 source,
               const i64 *targets, i64 n_targets, double *dist, i64 *pred,
               i64 *out_exhausted, i64 *out_relaxations, i64 *out_settled)
{
    double *best = (double *)malloc((size_t)n * sizeof(double));
    if (best == NULL)
        return -1;
    u8 *want = NULL;
    i64 remaining = -1;
    if (n_targets >= 0) {
        want = (u8 *)calloc((size_t)n, 1);
        if (want == NULL) {
            free(best);
            return -1;
        }
        remaining = 0;
        for (i64 k = 0; k < n_targets; k++) {
            i64 t = targets[k];
            if (t != source && !node_dead[t] && !want[t]) {
                want[t] = 1;
                remaining++;
            }
        }
    }
    heap h = {NULL, 0, 0};
    *out_relaxations = 0;
    *out_settled = 0;
    int status = dijkstra_core(indptr, indices, weights, n, edge_dead,
                               node_dead, source, want, remaining, dist,
                               pred, best, &h, out_exhausted,
                               out_relaxations, out_settled);
    free(best);
    free(want);
    free(h.a);
    return status;
}

/* ---------------------------------------------------------------- *
 * Canonical index-ordered BFS with optional early target exit.
 * ---------------------------------------------------------------- */

static int
cmp_i64(const void *a, const void *b)
{
    i64 x = *(const i64 *)a;
    i64 y = *(const i64 *)b;
    return (x > y) - (x < y);
}

static int
bfs_core(const i64 *indptr, const i64 *indices, i64 n, const u8 *edge_dead,
         const u8 *node_dead, i64 source, i64 target, double *dist,
         i64 *pred, i64 *frontier, i64 *next_frontier, i64 *out_relaxations,
         i64 *out_settled)
{
    for (i64 i = 0; i < n; i++) {
        dist[i] = INFINITY;
        pred[i] = -1;
    }
    dist[source] = 0.0;
    i64 settled = 1;
    i64 relaxations = 0;
    if (source == target) {
        *out_settled += settled;
        return 0;
    }
    i64 flen = 1;
    frontier[0] = source;
    while (flen) {
        qsort(frontier, (size_t)flen, sizeof(i64), cmp_i64);
        i64 nlen = 0;
        for (i64 k = 0; k < flen; k++) {
            i64 u = frontier[k];
            double d_next = dist[u] + 1.0;
            i64 stop = indptr[u + 1];
            for (i64 slot = indptr[u]; slot < stop; slot++) {
                i64 v = indices[slot];
                if (node_dead[v] || edge_dead[slot])
                    continue;
                relaxations++;
                if (isinf(dist[v])) {
                    dist[v] = d_next;
                    pred[v] = u;
                    settled++;
                    if (v == target) {
                        *out_relaxations += relaxations;
                        *out_settled += settled;
                        return 0;
                    }
                    next_frontier[nlen++] = v;
                }
            }
        }
        i64 *swap = frontier;
        frontier = next_frontier;
        next_frontier = swap;
        flen = nlen;
    }
    *out_relaxations += relaxations;
    *out_settled += settled;
    return 0;
}

int
repro_bfs(const i64 *indptr, const i64 *indices, i64 n, const u8 *edge_dead,
          const u8 *node_dead, i64 source, i64 target, double *dist,
          i64 *pred, i64 *out_relaxations, i64 *out_settled)
{
    i64 *frontier = (i64 *)malloc(2 * (size_t)n * sizeof(i64));
    if (frontier == NULL)
        return -1;
    *out_relaxations = 0;
    *out_settled = 0;
    int status = bfs_core(indptr, indices, n, edge_dead, node_dead, source,
                          target, dist, pred, frontier, frontier + n,
                          out_relaxations, out_settled);
    free(frontier);
    return status;
}

/* ---------------------------------------------------------------- *
 * Batched exhaustive rows: one source per block row, scratch reused
 * across the whole batch.  Semantically identical to the caller's
 * per-source loop over repro_dijkstra / repro_bfs.
 * ---------------------------------------------------------------- */

int
repro_rows_many(const i64 *indptr, const i64 *indices, const double *weights,
                i64 n, const u8 *edge_dead, const u8 *node_dead,
                const i64 *sources, i64 n_sources, i64 unit,
                double *dist_block, i64 *pred_block, i64 *out_relaxations,
                i64 *out_settled)
{
    *out_relaxations = 0;
    *out_settled = 0;
    int status = 0;
    if (unit) {
        i64 *frontier = (i64 *)malloc(2 * (size_t)n * sizeof(i64));
        if (frontier == NULL)
            return -1;
        for (i64 k = 0; k < n_sources && status == 0; k++) {
            status = bfs_core(indptr, indices, n, edge_dead, node_dead,
                              sources[k], -1, dist_block + k * n,
                              pred_block + k * n, frontier, frontier + n,
                              out_relaxations, out_settled);
        }
        free(frontier);
        return status;
    }
    double *best = (double *)malloc((size_t)n * sizeof(double));
    if (best == NULL)
        return -1;
    heap h = {NULL, 0, 0};
    i64 exhausted = 1;
    for (i64 k = 0; k < n_sources && status == 0; k++) {
        status = dijkstra_core(indptr, indices, weights, n, edge_dead,
                               node_dead, sources[k], NULL, -1,
                               dist_block + k * n, pred_block + k * n, best,
                               &h, &exhausted, out_relaxations, out_settled);
    }
    free(best);
    free(h.a);
    return status;
}

/* ---------------------------------------------------------------- *
 * Children index of a pre-failure SPT: CSR offsets (n + 1 entries)
 * plus every node's children in ascending index order — the inversion
 * of the pred array that the fused repair walks to find cut subtrees.
 * `kids` has room for n entries; returns how many it filled, or -2
 * when a pred entry names no node.
 * ---------------------------------------------------------------- */

i64
repro_children(i64 n, const i64 *pred, i64 *offsets, i64 *kids)
{
    for (i64 i = 0; i <= n; i++)
        offsets[i] = 0;
    for (i64 v = 0; v < n; v++) {
        i64 p = pred[v];
        if (p < -1 || p >= n)
            return -2;
        if (p >= 0)
            offsets[p + 1]++;
    }
    for (i64 i = 1; i <= n; i++)
        offsets[i] += offsets[i - 1];
    i64 total = offsets[n];
    /* offsets[p + 1] is the end of p's run; filling backwards leaves
     * it at the run's start and the run in ascending index order. */
    for (i64 v = n - 1; v >= 0; v--) {
        i64 p = pred[v];
        if (p >= 0)
            kids[--offsets[p + 1]] = v;
    }
    memmove(offsets, offsets + 1, (size_t)n * sizeof(i64));
    offsets[n] = total;
    return total;
}

/* ---------------------------------------------------------------- *
 * Fused decremental repair: affected-subtree discovery, the fallback
 * threshold, and the Ramalingam–Reps re-settle in one call.
 *
 * The affected set is the union of the pre-failure subtrees hanging
 * below every cut tree edge (pred[v] == u for a dead slot u -> v, in
 * either orientation) and below every dead node the row reached —
 * repro.graph.incremental.affected_subtree, walked over the children
 * index.  Outcomes (the return value):
 *
 *   0  repaired: new_dist/new_pred hold the post-failure row;
 *   1  tree untouched: no deletion cut the tree, the row stands;
 *   2  over threshold: more than `threshold` nodes affected (the walk
 *      stops there — the caller recomputes from scratch);
 *   3  source cut off: the source itself failed.
 *
 * Only outcome 0 writes the outputs; the pre-failure row is read-only
 * (it may be a shared-memory page).  -1 reports an allocation failure.
 * ---------------------------------------------------------------- */

enum {
    REPAIR_DONE = 0,
    REPAIR_UNTOUCHED = 1,
    REPAIR_OVER_THRESHOLD = 2,
    REPAIR_SOURCE_CUT = 3
};

/* Tail of a CSR slot: the largest u with indptr[u] <= slot
 * (repro.graph.incremental.dead_edge_pairs' binary search). */
static i64
slot_tail(const i64 *indptr, i64 n, i64 slot)
{
    i64 lo = 0;
    i64 hi = n;
    while (lo + 1 < hi) {
        i64 mid = (lo + hi) / 2;
        if (indptr[mid] <= slot)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

/* Boundary offers + bounded heap re-settle of the affected region —
 * the reference boundary-offer loop.  `new_dist`/`new_pred` arrive
 * holding the pre-failure labels and are repaired in place; `aff`
 * lists the region and `aff_mask` marks it. */
static int
resettle(const i64 *indptr, const i64 *indices, const double *weights,
         i64 n, const u8 *edge_dead, const u8 *node_dead, const i64 *aff,
         i64 n_aff, const u8 *aff_mask, i64 unit, double *new_dist,
         i64 *new_pred, i64 *out_relaxations, i64 *out_settled)
{
    double *best_d = (double *)malloc((size_t)n * sizeof(double));
    i64 *best_p = (i64 *)malloc((size_t)n * sizeof(i64));
    if (best_d == NULL || best_p == NULL) {
        free(best_d);
        free(best_p);
        return -1;
    }
    /* best_* entries are only ever read for affected nodes; -1 marks
     * "no offer yet" (the reference dict's missing key). */
    for (i64 k = 0; k < n_aff; k++) {
        i64 x = aff[k];
        new_dist[x] = INFINITY;
        new_pred[x] = -1;
        best_p[x] = -1;
    }

    i64 relaxations = 0;
    /* Boundary offers: surviving edges from intact nodes into the
     * region, equal offers resolved by the canonical
     * (dist[parent], parent index) rule. */
    for (i64 k = 0; k < n_aff; k++) {
        i64 x = aff[k];
        if (node_dead[x])
            continue;
        i64 stop = indptr[x + 1];
        for (i64 slot = indptr[x]; slot < stop; slot++) {
            i64 u = indices[slot];
            if (aff_mask[u] || node_dead[u] || edge_dead[slot])
                continue;
            relaxations++;
            double candidate = new_dist[u] + (unit ? 1.0 : weights[slot]);
            i64 op = best_p[x];
            if (op < 0 || candidate < best_d[x] ||
                (candidate == best_d[x] &&
                 (new_dist[u] < new_dist[op] ||
                  (new_dist[u] == new_dist[op] && u < op)))) {
                best_d[x] = candidate;
                best_p[x] = u;
            }
        }
    }
    heap h = {NULL, 0, 0};
    for (i64 k = 0; k < n_aff; k++) {
        i64 x = aff[k];
        if (best_p[x] >= 0 && heap_push(&h, best_d[x], x))
            goto oom;
    }

    i64 settled = 0;
    while (h.len) {
        hkey top = heap_pop(&h);
        i64 x = hidx_of(top);
        double d_x = hkey_of(top);
        if (!isinf(new_dist[x]))
            continue;
        if (d_x != best_d[x])
            continue; /* stale entry superseded by a better offer */
        new_dist[x] = d_x;
        new_pred[x] = best_p[x];
        settled++;
        i64 stop = indptr[x + 1];
        for (i64 slot = indptr[x]; slot < stop; slot++) {
            i64 v = indices[slot];
            if (!aff_mask[v] || node_dead[v] || edge_dead[slot])
                continue;
            relaxations++;
            if (!isinf(new_dist[v]))
                continue;
            double candidate = d_x + (unit ? 1.0 : weights[slot]);
            i64 op = best_p[v];
            if (op < 0 || candidate < best_d[v] ||
                (candidate == best_d[v] &&
                 (d_x < new_dist[op] ||
                  (d_x == new_dist[op] && x < op)))) {
                best_d[v] = candidate;
                best_p[v] = x;
                if (heap_push(&h, candidate, v))
                    goto oom;
            }
        }
    }
    free(best_d);
    free(best_p);
    free(h.a);
    *out_relaxations = relaxations;
    *out_settled = settled;
    return 0;
oom:
    free(best_d);
    free(best_p);
    free(h.a);
    return -1;
}

int
repro_repair(const i64 *indptr, const i64 *indices, const double *weights,
             i64 n, const u8 *edge_dead, const u8 *node_dead, i64 source,
             const double *dist, const i64 *pred, const i64 *child_off,
             const i64 *kids, const i64 *dead_slots, i64 n_dead_slots,
             const i64 *dead_nodes, i64 n_dead_nodes, double threshold,
             i64 unit, double *new_dist, i64 *new_pred,
             i64 *out_relaxations, i64 *out_settled)
{
    *out_relaxations = 0;
    *out_settled = 0;
    /* The source is the tree's root: it is affected exactly when it
     * failed itself. */
    if (node_dead[source])
        return REPAIR_SOURCE_CUT;
    u8 *aff_mask = (u8 *)calloc((size_t)n, 1);
    i64 *aff = (i64 *)malloc((size_t)n * sizeof(i64));
    /* Every node enters the stack once as its parent's child, plus
     * at most two roots per dead slot and one per dead node. */
    i64 *stack = (i64 *)malloc(
        (size_t)(n + 2 * n_dead_slots + n_dead_nodes) * sizeof(i64));
    if (aff_mask == NULL || aff == NULL || stack == NULL) {
        free(aff_mask);
        free(aff);
        free(stack);
        return -1;
    }
    i64 sp = 0;
    for (i64 k = 0; k < n_dead_slots; k++) {
        i64 slot = dead_slots[k];
        i64 v = indices[slot];
        i64 u = slot_tail(indptr, n, slot);
        if (pred[v] == u)
            stack[sp++] = v;
        if (pred[u] == v)
            stack[sp++] = u;
    }
    for (i64 k = 0; k < n_dead_nodes; k++) {
        i64 x = dead_nodes[k];
        if (!isinf(dist[x]))
            stack[sp++] = x;
    }
    i64 n_aff = 0;
    int status = REPAIR_DONE;
    while (sp) {
        i64 x = stack[--sp];
        if (aff_mask[x])
            continue;
        aff_mask[x] = 1;
        aff[n_aff++] = x;
        if ((double)n_aff > threshold) {
            status = REPAIR_OVER_THRESHOLD;
            break;
        }
        i64 stop = child_off[x + 1];
        for (i64 k = child_off[x]; k < stop; k++)
            stack[sp++] = kids[k];
    }
    if (status == REPAIR_DONE && n_aff == 0)
        status = REPAIR_UNTOUCHED;
    if (status == REPAIR_DONE) {
        memcpy(new_dist, dist, (size_t)n * sizeof(double));
        memcpy(new_pred, pred, (size_t)n * sizeof(i64));
        if (resettle(indptr, indices, weights, n, edge_dead, node_dead, aff,
                     n_aff, aff_mask, unit, new_dist, new_pred,
                     out_relaxations, out_settled))
            status = -1;
    }
    free(aff_mask);
    free(aff);
    free(stack);
    return status;
}

/* ---------------------------------------------------------------- *
 * Min-pieces decomposition DP — forward pass, first-minimal-j ties.
 * `rows[j]` is the already-warmed oracle distance row of chain[j] for
 * j = 0 .. n - 3 (the only positions whose row the DP reads); a probe
 * of the piece j -> i reads rows[j][chain[i]].  No allocation, no
 * callback.
 * ---------------------------------------------------------------- */

static int
costs_equal(double a, double b, double eps)
{
    /* abs(a - b) <= eps * max(1.0, abs(a), abs(b)) — the tolerance of
     * repro.graph.shortest_paths.costs_equal, same double ops. */
    double scale = fabs(a);
    double fb = fabs(b);
    if (fb > scale)
        scale = fb;
    if (scale < 1.0)
        scale = 1.0;
    return fabs(a - b) <= eps * scale;
}

int
repro_decompose(i64 n, const i64 *chain, const double *cum,
                const double *const *rows, double eps, i64 *best,
                i64 *choice, i64 *out_probes)
{
    i64 unset = n + 1;
    for (i64 i = 0; i < n; i++) {
        best[i] = unset;
        choice[i] = 0;
    }
    best[0] = 0;
    i64 probes = 0;
    for (i64 i = 1; i < n; i++) {
        double cum_i = cum[i];
        i64 ci = chain[i];
        i64 bi = unset;
        i64 cj = 0;
        for (i64 j = 0; j < i; j++) {
            i64 bj = best[j];
            if (bj == unset)
                continue;
            probes++;
            if (i - j > 1) {
                double d = rows[j][ci];
                if (isinf(d) || !costs_equal(cum_i - cum[j], d, eps))
                    continue;
            }
            i64 candidate = bj + 1;
            if (candidate < bi) {
                bi = candidate;
                cj = j;
            }
        }
        best[i] = bi;
        choice[i] = cj;
    }
    *out_probes = probes;
    return 0;
}

/* ---------------------------------------------------------------- *
 * Per-link ILM accounting of one (scenario, source) pair.  Every
 * affected demand's backup chain is the tree path source -> target in
 * the repaired `pred` row, so the min-pieces DP runs once per node of
 * the union of those chains, parents first, instead of once per
 * chain.  A node's cell reads only its own tree path — the prefix of
 * every chain through it — so each target's pieces are those of
 * repro_decompose over its chain: `cum` adds probe weights from the
 * root down (the chain's prefix sums, the same additions) and ties go
 * to the shallowest ancestor (repro_decompose's first-minimal j).
 *
 * `rows[a]` is the oracle distance row of node a, or null; the DP
 * reads it only for nodes with a union descendant two or more levels
 * down.  `work` holds eleven n-entry scratch arrays the caller keeps
 * between calls: depth (all -1 on entry, and restored to -1 on every
 * return), then parent, best, choice, sub, height, mark, order, stack,
 * path, nodes.  Only the entries of touched nodes are written, so a
 * call costs O(union + probes), never O(n).
 *
 * Statuses: 0 accounted; 1 the DP needs the rows of the out[4] nodes
 * listed in `nodes`, whose `rows` entry is null; 2 the pieces need
 * out[4] flat entries, more than flat_cap; 3 target out[5] lies
 * outside [0, n); 4 pred[out[5]] is outside the row or not a
 * probe-graph edge; 5 pred has a cycle through out[5].  Only status 0
 * writes `naive` (restored chains' nodes, once each), `piece_off` /
 * `flat` (the distinct pieces) and out[0..4] (restored, unrestorable,
 * probes, pieces, flat length).
 * ---------------------------------------------------------------- */

enum {
    ILM_DONE = 0,
    ILM_NEED_ROWS = 1,
    ILM_NEED_SPACE = 2,
    ILM_BAD_TARGET = 3,
    ILM_BAD_PARENT = 4,
    ILM_CYCLE = 5
};

/* Weight of the probe-graph edge u -> v from its last CSR slot (the
 * one a slot-by-slot {(u, v): w} map keeps); 0 when there is none. */
static int
edge_weight(const i64 *indptr, const i64 *indices, const double *weights,
            i64 u, i64 v, double *w)
{
    for (i64 slot = indptr[u + 1] - 1; slot >= indptr[u]; slot--) {
        if (indices[slot] == v) {
            *w = weights[slot];
            return 1;
        }
    }
    return 0;
}

int
repro_ilm_account(const i64 *indptr, const i64 *indices,
                  const double *weights, i64 n, i64 source,
                  const i64 *targets, i64 n_targets, const double *dist,
                  const i64 *pred, const double *const *rows, double eps,
                  i64 *naive, i64 *work, double *cum, i64 *piece_off,
                  i64 *flat, i64 flat_cap, i64 *out)
{
    i64 *depth = work;
    i64 *parent = work + n;
    i64 *best = work + 2 * n;
    i64 *choice = work + 3 * n;
    i64 *sub = work + 4 * n;
    i64 *height = work + 5 * n;
    i64 *mark = work + 6 * n;
    i64 *order = work + 7 * n; /* the union, parents first */
    i64 *stack = work + 8 * n; /* one walk's new nodes, depth -2 */
    i64 *path = work + 9 * n;
    i64 *nodes = work + 10 * n;
    i64 n_order = 0;
    i64 sp = 0;
    i64 restored = 0;
    i64 unrestorable = 0;
    int status = ILM_DONE;

    depth[source] = 0;
    parent[source] = -1;
    cum[source] = 0.0;
    best[source] = 0;
    sub[source] = 0;
    height[source] = 0;
    mark[source] = 0;
    order[n_order++] = source;

    /* The union of the restorable targets' chains: walk up to the
     * first node already in it, then hang the walk below that node. */
    for (i64 k = 0; k < n_targets && status == ILM_DONE; k++) {
        i64 t = targets[k];
        if (t < 0 || t >= n) {
            out[5] = t;
            status = ILM_BAD_TARGET;
            break;
        }
        if (isinf(dist[t])) {
            unrestorable++;
            continue;
        }
        restored++;
        i64 x = t;
        while (depth[x] < 0) {
            if (depth[x] == -2) {
                out[5] = x;
                status = ILM_CYCLE;
                break;
            }
            i64 p = pred[x];
            if (p < 0 || p >= n) {
                out[5] = x;
                status = ILM_BAD_PARENT;
                break;
            }
            depth[x] = -2;
            stack[sp++] = x;
            x = p;
        }
        while (status == ILM_DONE && sp) {
            i64 v = stack[sp - 1];
            double w;
            if (!edge_weight(indptr, indices, weights, x, v, &w)) {
                out[5] = v;
                status = ILM_BAD_PARENT;
                break;
            }
            sp--;
            depth[v] = depth[x] + 1;
            parent[v] = x;
            cum[v] = cum[x] + w;
            sub[v] = 0;
            height[v] = 0;
            mark[v] = 0;
            order[n_order++] = v;
            x = v;
        }
        if (status == ILM_DONE)
            sub[t]++;
    }

    /* Rows the DP reads: every node with a descendant two levels down. */
    i64 missing = 0;
    if (status == ILM_DONE) {
        for (i64 i = n_order - 1; i > 0; i--) {
            i64 v = order[i];
            i64 p = parent[v];
            if (height[v] + 1 > height[p])
                height[p] = height[v] + 1;
            sub[p] += sub[v];
        }
        for (i64 i = 0; i < n_order; i++) {
            i64 a = order[i];
            if (height[a] >= 2 && rows[a] == NULL)
                nodes[missing++] = a;
        }
        if (missing) {
            out[4] = missing;
            status = ILM_NEED_ROWS;
        }
    }

    i64 probes = 0;
    if (status == ILM_DONE) {
        for (i64 i = 1; i < n_order; i++) {
            i64 v = order[i];
            i64 dv = depth[v];
            i64 x = v;
            for (i64 j = dv - 1; j >= 0; j--) {
                x = parent[x];
                path[j] = x;
            }
            /* The one-hop piece from the parent always qualifies, so
             * every cell is set and each ancestor costs one probe. */
            double cum_v = cum[v];
            i64 bi = dv + 1;
            i64 cj = source;
            for (i64 j = 0; j < dv; j++) {
                i64 a = path[j];
                if (dv - j > 1) {
                    double d = rows[a][v];
                    if (isinf(d) || !costs_equal(cum_v - cum[a], d, eps))
                        continue;
                }
                i64 candidate = best[a] + 1;
                if (candidate < bi) {
                    bi = candidate;
                    cj = a;
                }
            }
            best[v] = bi;
            choice[v] = cj;
            probes += dv;
        }
    }

    /* Distinct pieces: a piece is named by its last node v (it runs
     * from choice[v]), so a target's backtrack stops at the first end
     * an earlier target already reached. */
    i64 n_pieces = 0;
    i64 total = 0;
    if (status == ILM_DONE) {
        for (i64 k = 0; k < n_targets; k++) {
            i64 v = targets[k];
            if (isinf(dist[v]))
                continue;
            while (v != source && !mark[v]) {
                mark[v] = 1;
                nodes[n_pieces++] = v;
                total += depth[v] - depth[choice[v]] + 1;
                v = choice[v];
            }
        }
        if (total > flat_cap) {
            out[4] = total;
            status = ILM_NEED_SPACE;
        }
    }

    if (status == ILM_DONE) {
        i64 pos = 0;
        for (i64 c = 0; c < n_pieces; c++) {
            i64 v = nodes[c];
            i64 len = depth[v] - depth[choice[v]] + 1;
            piece_off[c] = pos;
            for (i64 m = len - 1; m >= 0; m--) {
                flat[pos + m] = v;
                v = parent[v];
            }
            pos += len;
        }
        piece_off[n_pieces] = pos;
        for (i64 i = 0; i < n_order; i++) {
            i64 v = order[i];
            naive[v] += sub[v];
        }
        out[0] = restored;
        out[1] = unrestorable;
        out[2] = probes;
        out[3] = n_pieces;
        out[4] = pos;
    }

    for (i64 i = 0; i < n_order; i++)
        depth[order[i]] = -1;
    for (i64 i = 0; i < sp; i++)
        depth[stack[i]] = -1;
    return status;
}

/* ---------------------------------------------------------------- *
 * Shortest-path counts over the tight-edge DAG of a canonical row —
 * the reference count_paths loop with u64 counts.  The source goes
 * first, then every other reached node in (dist, index) order: the
 * order the packed heap keys pop in (a heapsort needs no comparator,
 * so concurrent calls — ctypes drops the GIL — share no state).
 * Statuses: 0 counted, 1 a count overflowed u64 (the wrapper reruns
 * the exact reference), 2 the tight edge *out_u -> *out_v does not
 * lead later in the order, -1 allocation failure.  Only status 0
 * leaves `counts` meaningful.
 * ---------------------------------------------------------------- */

enum { COUNT_DONE = 0, COUNT_OVERFLOW = 1, COUNT_BAD_ORDER = 2 };

int
repro_count_paths(const i64 *indptr, const i64 *indices,
                  const double *weights, i64 n, i64 source,
                  const double *dist, double eps, uint64_t *counts,
                  i64 *out_u, i64 *out_v)
{
    i64 *order = (i64 *)malloc(2 * (size_t)n * sizeof(i64));
    if (order == NULL)
        return -1;
    i64 *pos = order + n;
    heap h = {NULL, 0, 0};
    for (i64 i = 0; i < n; i++) {
        counts[i] = 0;
        pos[i] = -1;
        if (i != source && !isinf(dist[i]) && heap_push(&h, dist[i], i)) {
            free(order);
            free(h.a);
            return -1;
        }
    }
    i64 reached = 0;
    order[reached++] = source;
    while (h.len)
        order[reached++] = hidx_of(heap_pop(&h));
    free(h.a);
    for (i64 k = 0; k < reached; k++)
        pos[order[k]] = k;
    counts[source] = 1;
    int status = COUNT_DONE;
    for (i64 k = 0; k < reached && status == COUNT_DONE; k++) {
        i64 u = order[k];
        uint64_t c = counts[u];
        double d_u = dist[u];
        i64 stop = indptr[u + 1];
        for (i64 slot = indptr[u]; slot < stop; slot++) {
            i64 v = indices[slot];
            if (v == source ||
                !costs_equal(d_u + weights[slot], dist[v], eps))
                continue;
            if (pos[v] <= k) {
                *out_u = u;
                *out_v = v;
                status = COUNT_BAD_ORDER;
                break;
            }
            if (__builtin_add_overflow(counts[v], c, &counts[v])) {
                status = COUNT_OVERFLOW;
                break;
            }
        }
    }
    free(order);
    return status;
}
