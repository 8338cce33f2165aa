/* refine_kernel.c — compiled inner loops for the mapper and partitioner
 * production paths.
 *
 * Seven entry points, one shared object:
 *
 * refine_cost_table — RefineTopoLB's first-order cost table, accumulated
 * in SciPy's csr_matvecs order, in double or, when every value it can hold
 * is an exact integer in int32 range, in int32_t.
 *
 * refine_sweep_incremental — ONE full sweep of RefineTopoLB's pairwise-swap
 * refiner with the incremental delta structure: per-task best-swap caches
 * (best_b, best_val, valid) that persist across sweeps, invalidated/folded
 * by the dirty set of each accepted swap ({a, b} ∪ N(a) ∪ N(b) — exactly
 * the rows/columns the cost-table patch mutates).
 *
 * topolb_cycles — TopoLB's cycle loop. First and second order: task
 * selection, the stale-argmin walk over a sorted reserve, the neighbour-row
 * updates and the reserve rebuilds; under the "gain" rule it pauses after
 * every cycle that dirtied rows so the caller can refresh their row sums.
 * Third order: selection, the neighbour-row updates, and the O(n·p)
 * recentre of every unplaced row on the shrunken free-processor average
 * with its first minimum, one contiguous vector pass over all p columns of
 * each row (a consumed column holds the reference's finite penalty),
 * compacting the unplaced rows to the top of fest; under "gain" it pauses
 * after every cycle so the caller can refresh the row sums of that
 * compacted prefix.
 *
 * topocent_cycles — TopoCentLB's cycle loop: the argmax selection, the
 * gather of each cycle's cost operands, the placement with its tie-break
 * and the key bumps; it pauses once per cycle for the caller's BLAS cost
 * row, or, at a task with no placed neighbour, for its seed processor.
 *
 * partition_bisect — one graph-growing bisection of the phase-1
 * partitioner over a range of an order array, split stably in place.
 *
 * partition_recursive — the phase-1 partitioner's whole recursion of
 * partition_bisect splits, drawing each split's seed from the caller's
 * np.random.Generator through NumPy's bitgen_t and summing each range's
 * load pairwise as NumPy does.
 *
 * partition_refine_pass — one FM pass of the phase-1 k-way refinement.
 *
 * Bit-identity contract: every floating-point expression mirrors the
 * reference path's element order exactly (see repro/mapping/refine.py,
 * _refine_reference and _apply_swap; repro/mapping/topolb.py,
 * _run_reference; repro/mapping/topocentlb.py, _run; and the list walks
 * of repro/partition/recursive_bisection.py and refinement.py, whose
 * Generator.integers draws and ndarray.sum calls partition_recursive
 * repeats), and the build uses -ffp-contract=off so no fused-multiply-add
 * changes rounding. It targets the host's instruction set (-march=native)
 * without -ffast-math: a vectorized loop computes each lane's element as
 * the scalar expression does and no sum is reassociated, so no result
 * depends on the vector width. The equivalence suites pin compiled and
 * reference results to be bitwise equal, and compiled results to be equal
 * at -march=native and at baseline x86-64.
 *
 * Compiled on demand by repro.mapping._native via the system C compiler;
 * when no toolchain is available each call site runs its reference body
 * instead: the "reference" loops of refine.py and topolb.py, TopoCentLB's
 * _run, and the partitioner's walks over csr_lists (_bisect_lists,
 * _split_lists, _refine_pass_lists).
 *
 * The two resumable loops, topolb_cycles and topocent_cycles, re-enter C
 * many times a run, so each takes a single pointer to an argument block
 * (a struct of 8-byte words) that the caller builds once per run.
 *
 * The four mapper entry points read the machine's distances through one
 * dtable (below): its p x p table in its own dtype, int32 or float64, or,
 * on a grid machine, its per-axis tables, so that no p x p table is built.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* A machine's distances, of one of three kinds:
 *
 * DT_I32, DT_F64 — a p x p table in the machine's own dtype: int32 where
 * hop distances are integers, float64 where they may be fractional
 * (explicit matrices, weighted graphs);
 * DT_GRID — a C-order product grid, d(i, j) = sum_k T_k[i_k, j_k], which
 * data points to as a block of 8-byte words: ndim, the ndim extents s_k,
 * then ndim pointers to the s_k x s_k int32 tables T_k, then ndim pointers
 * to the p int32 coordinates of every node on axis k.
 *
 * Random lookups read dist_pair; a loop over all p columns of one row reads
 * the row dist_row returns, a table row, or for a grid a row it expands into
 * the caller's scratch of 2p + 1 int32, once for all the rows it feeds.
 * Entries widen to double on load; integer distances are summed as integers
 * first, so every kind gives each expression the doubles a float64 copy of
 * the table would hold. */
enum { DT_I32, DT_F64, DT_GRID };

typedef struct {
    const void *data;
    i64 kind;
    i64 p;
} dtable;

/* One row of distances: int32 or double entries. */
typedef struct {
    const void *data;
    i64 f64;
} drow;

static inline double row_at(drow r, i64 q)
{
    return r.f64 ? ((const double *)r.data)[q]
                 : (double)((const int32_t *)r.data)[q];
}

static inline const int32_t *grid_ptr(const i64 *g, i64 word)
{
    return (const int32_t *)(intptr_t)g[word];
}

static inline double dist_pair(dtable d, i64 i, i64 j)
{
    if (d.kind == DT_GRID) {
        const i64 *g = (const i64 *)d.data;
        const i64 nd = g[0];
        i64 sum = 0;
        for (i64 k = 0; k < nd; k++) {
            const int32_t *c = grid_ptr(g, 1 + 2 * nd + k);
            sum += grid_ptr(g, 1 + nd + k)[(i64)c[i] * g[1 + k] + c[j]];
        }
        return (double)sum;
    }
    return row_at((drow){d.data, d.kind == DT_F64}, i * d.p + j);
}

/* The partial sums of a grid row a over axes [k0, k1) into out, in C order
 * over those axes: after axis k the first s_k0 * .. * s_k entries hold the
 * sums over axes k0..k, each entry i spreading into entries i * s_k ..
 * i * s_k + s_k - 1 (high i first, so no entry is overwritten before it is
 * read). Returns the entry count. */
static i64 grid_partial(const i64 *g, i64 a, i64 k0, i64 k1,
                        int32_t *restrict out)
{
    const i64 nd = g[0];
    i64 len = 1;
    out[0] = 0;
    for (i64 k = k0; k < k1; k++) {
        const i64 ext = g[1 + k];
        const int32_t *restrict t = grid_ptr(g, 1 + nd + k)
                                    + (i64)grid_ptr(g, 1 + 2 * nd + k)[a] * ext;
        for (i64 i = len - 1; i >= 0; i--) {
            const int32_t base = out[i];
            for (i64 j = 0; j < ext; j++)
                out[i * ext + j] = base + t[j];
        }
        len *= ext;
    }
    return len;
}

/* Row a of the distances. A grid row is the outer sum of two partial rows:
 * lead over the leading axes and trail over the trailing ones, split where
 * trail first holds at least sqrt(p) entries, so the last pass is lead's
 * entry count of contiguous loops, each trail's length long. scratch holds
 * 2p + 1 int32: the row, then lead and trail. */
static drow dist_row(dtable d, i64 a, int32_t *scratch)
{
    if (d.kind != DT_GRID)
        return (drow){d.kind == DT_F64
                          ? (const void *)((const double *)d.data + a * d.p)
                          : (const void *)((const int32_t *)d.data + a * d.p),
                      d.kind == DT_F64};
    const i64 *g = (const i64 *)d.data;
    i64 split = g[0], tail = 1;
    while (split > 0 && tail * tail < d.p)
        tail *= g[1 + --split];
    int32_t *lead = scratch + d.p;
    const i64 nl = grid_partial(g, a, 0, split, lead);
    int32_t *restrict trail = lead + nl;
    grid_partial(g, a, split, g[0], trail);
    for (i64 i = 0; i < nl; i++) {
        const int32_t base = lead[i];
        int32_t *restrict out = scratch + i * tail;
        for (i64 m = 0; m < tail; m++)
            out[m] = base + trail[m];
    }
    return (drow){scratch, 0};
}

/* RefineTopoLB's cost table, of one of two element types: double, or
 * int32_t where every value the double table would ever hold (the initial
 * table, each half-applied swap patch) is an exact integer that int32
 * holds, a rule repro.mapping._native checks before it binds a table. The
 * four loops that touch the table (the build, compute_row, apply_swap and
 * the fold) have one body each, which the entry points instantiate for
 * both types through a constant `i32`: each load widens to double and each
 * store narrows an exact integer back, so both types compute every
 * expression on the same doubles, in the same term order. */
enum { CT_F64, CT_I32 };

#define ALWAYS_INLINE inline __attribute__((always_inline))

typedef struct {
    void *data;
    int i32;
} ctable;

static ALWAYS_INLINE double cost_at(ctable c, i64 i)
{
    return c.i32 ? (double)((const int32_t *)c.data)[i]
                 : ((const double *)c.data)[i];
}

static ALWAYS_INLINE void cost_put(ctable c, i64 i, double v)
{
    if (c.i32)
        ((int32_t *)c.data)[i] = (int32_t)v;
    else
        ((double *)c.data)[i] = v;
}

/* RefineTopoLB's cost table C[t, q] = sum over neighbours j of
 * w_tj * dist[assign[j], q], row by row in CSR order: zero the row, then
 * add w * dist[assign[j]] per nonzero — the order of SciPy's csr_matvecs,
 * so the table is bitwise equal to `csr_matrix(...) @ dist`. scratch is
 * dist_row's. */
static ALWAYS_INLINE void cost_table(i64 n, i64 p, const i64 *restrict indptr,
                                     const i64 *restrict indices,
                                     const double *restrict weights,
                                     const i64 *restrict assign, dtable dist,
                                     ctable cost, int32_t *restrict scratch)
{
    for (i64 t = 0; t < n; t++) {
        const i64 row = t * p;
        for (i64 q = 0; q < p; q++)
            cost_put(cost, row + q, 0.0);
        for (i64 k = indptr[t]; k < indptr[t + 1]; k++) {
            const double w = weights[k];
            const drow d = dist_row(dist, assign[indices[k]], scratch);
            for (i64 q = 0; q < p; q++)
                cost_put(cost, row + q, cost_at(cost, row + q)
                                            + w * row_at(d, q));
        }
    }
}

void refine_cost_table(i64 n, i64 p, const i64 *restrict indptr,
                       const i64 *restrict indices,
                       const double *restrict weights,
                       const i64 *restrict assign, const void *dist_data,
                       i64 dist_kind, void *cost, i64 cost_kind,
                       int32_t *restrict scratch)
{
    const dtable dist = {dist_data, dist_kind, p};
    if (cost_kind == CT_I32)
        cost_table(n, p, indptr, indices, weights, assign, dist,
                   (ctable){cost, 1}, scratch);
    else
        cost_table(n, p, indptr, indices, weights, assign, dist,
                   (ctable){cost, 0}, scratch);
}

/* Reference row evaluation for task `a`: delta against every candidate b,
 * written into buf[0..n), then first-minimum argmin (np.argmin semantics).
 * Term order per element:  ((C[a,pb] + C[b,pa]) - C[a,pa]) - C[b,pb],
 * then += (2.0 * w) * dist[pa, pb'] at neighbor positions, then
 * buf[a] = 0.0. */
static ALWAYS_INLINE void compute_row(i64 n, i64 p, ctable cost, dtable dist,
                                      const i64 *assign, const i64 *indptr,
                                      const i64 *indices,
                                      const double *weights, double *buf,
                                      i64 a, i64 *bb_out, double *bv_out)
{
    const i64 pa = assign[a];
    const double capa = cost_at(cost, a * p + pa);
    for (i64 b = 0; b < n; b++) {
        const i64 pb = assign[b];
        buf[b] = ((cost_at(cost, a * p + pb) + cost_at(cost, b * p + pa))
                  - capa) - cost_at(cost, b * p + pb);
    }
    for (i64 k = indptr[a]; k < indptr[a + 1]; k++) {
        const i64 b = indices[k];
        buf[b] += (2.0 * weights[k]) * dist_pair(dist, pa, assign[b]);
    }
    buf[a] = 0.0;
    i64 bb = 0;
    double bv = buf[0];
    for (i64 b = 1; b < n; b++) {
        if (buf[b] < bv) {
            bv = buf[b];
            bb = b;
        }
    }
    *bb_out = bb;
    *bv_out = bv;
}

/* Swap the processors of a and b and patch the cost table, mirroring
 * RefineTopoLB._apply_swap: move[q] = d[pb,q] - d[pa,q] once per swap, then
 * cost[r, q] += (sign * w_r) * move[q] for every neighbor r of a (sign +1)
 * and of b (sign -1). `move` is caller-owned scratch of p doubles, `rows`
 * of 2 (2p + 1) int32 (two dist_row scratches). */
static ALWAYS_INLINE void apply_swap(i64 p, ctable cost, dtable dist,
                                     i64 *assign, const i64 *indptr,
                                     const i64 *indices,
                                     const double *weights, double *move,
                                     int32_t *rows, i64 a, i64 b)
{
    const i64 pa = assign[a], pb = assign[b];
    if (a == b || pa == pb)
        return;
    assign[a] = pb;
    assign[b] = pa;
    const drow rb = dist_row(dist, pb, rows);
    const drow ra = dist_row(dist, pa, rows + 2 * p + 1);
    for (i64 q = 0; q < p; q++)
        move[q] = row_at(rb, q) - row_at(ra, q);
    for (int side = 0; side < 2; side++) {
        const i64 t = side ? b : a;
        const double sign = side ? -1.0 : 1.0;
        for (i64 k = indptr[t]; k < indptr[t + 1]; k++) {
            const i64 row = indices[k] * p;
            const double sw = sign * weights[k];
            for (i64 q = 0; q < p; q++)
                cost_put(cost, row + q, cost_at(cost, row + q) + sw * move[q]);
        }
    }
}

static int cmp_i64(const void *x, const void *y)
{
    const i64 a = *(const i64 *)x, b = *(const i64 *)y;
    return (a > b) - (a < b);
}

/* Run one sweep over perm[0..n). Caches best_b/best_val/valid persist
 * across calls (the caller owns them, zero-initialised before sweep 1).
 * stats (cumulative): [0] visits, [1] accepted swaps, [2] rows computed
 * from scratch, [3] rows folded. Returns 1 if any swap was accepted, -1 if
 * the scratch allocation fails. */
static ALWAYS_INLINE i64 sweep(i64 n, i64 p, ctable cost, dtable dist,
                               i64 *assign, const i64 *indptr,
                               const i64 *indices, const double *weights,
                               const i64 *perm, i64 *best_b,
                               double *best_val, unsigned char *valid,
                               i64 *stats)
{
    double *buf = (double *)malloc((size_t)n * sizeof(double));
    i64 *touched = (i64 *)malloc((size_t)(2 * n + 2) * sizeof(i64));
    i64 *pos = (i64 *)calloc((size_t)n, sizeof(i64));
    double *corr = (double *)malloc((size_t)n * sizeof(double));
    unsigned char *cset = (unsigned char *)calloc((size_t)n, 1);
    double *move = (double *)malloc((size_t)p * sizeof(double));
    int32_t *rows = (int32_t *)malloc((size_t)(4 * p + 2) * sizeof(int32_t));
    if (!buf || !touched || !pos || !corr || !cset || !move || !rows) {
        free(buf); free(touched); free(pos); free(corr); free(cset);
        free(move); free(rows);
        return -1;
    }

    i64 swapped = 0;
    for (i64 k = 0; k < n; k++) {
        const i64 a = perm[k];
        if (!valid[a]) {
            compute_row(n, p, cost, dist, assign, indptr, indices, weights,
                        buf, a, &best_b[a], &best_val[a]);
            valid[a] = 1;
            stats[2]++;
        }
        stats[0]++;
        if (!(best_val[a] < -1e-9))
            continue;
        const i64 b = best_b[a];
        stats[1]++;
        swapped = 1;
        apply_swap(p, cost, dist, assign, indptr, indices, weights, move,
                   rows, a, b);

        /* Dirty set: a, b and their neighbors — sorted unique so the fold
         * scans candidates in ascending task order (argmin tie-break). */
        i64 m = 0;
        touched[m++] = a;
        touched[m++] = b;
        for (i64 t = indptr[a]; t < indptr[a + 1]; t++)
            touched[m++] = indices[t];
        for (i64 t = indptr[b]; t < indptr[b + 1]; t++)
            touched[m++] = indices[t];
        qsort(touched, (size_t)m, sizeof(i64), cmp_i64);
        i64 mu = 0;
        for (i64 j = 0; j < m; j++)
            if (j == 0 || touched[j] != touched[j - 1])
                touched[mu++] = touched[j];
        m = mu;

        for (i64 j = 0; j < m; j++)
            valid[touched[j]] = 0;

        if (m * 4 >= n) {
            /* Dense dirty set: folding costs as much as recomputing, so
             * drop every cache (rows rebuild lazily on their next visit). */
            memset(valid, 0, (size_t)n);
            continue;
        }
        for (i64 j = 0; j < m; j++)
            pos[touched[j]] = j + 1;

        /* Fold the moved columns into every still-valid cache row: only
         * entries at the dirty columns changed, and they are recomputed
         * with the exact reference term order, so the merged (argmin, min)
         * stays bitwise equal to a fresh row. Rows whose cached argmin is
         * itself dirty lost their proof of minimality and recompute on
         * their next visit instead. */
        for (i64 r = 0; r < n; r++) {
            if (!valid[r])
                continue;
            if (pos[best_b[r]]) {
                valid[r] = 0;
                continue;
            }
            const i64 pr = assign[r];
            const double crr = cost_at(cost, r * p + pr);
            for (i64 t = indptr[r]; t < indptr[r + 1]; t++) {
                const i64 j = pos[indices[t]];
                if (j) {
                    corr[j - 1] = (2.0 * weights[t])
                                  * dist_pair(dist, pr, assign[indices[t]]);
                    cset[j - 1] = 1;
                }
            }
            i64 bb = best_b[r];
            double bv = best_val[r];
            int updated = 0;
            for (i64 j = 0; j < m; j++) {
                const i64 d = touched[j];
                const i64 pd = assign[d];
                double v = ((cost_at(cost, r * p + pd)
                             + cost_at(cost, d * p + pr)) - crr)
                           - cost_at(cost, d * p + pd);
                if (cset[j])
                    v += corr[j];
                if (v < bv || (v == bv && d < bb)) {
                    bv = v;
                    bb = d;
                    updated = 1;
                }
            }
            if (updated) {
                best_b[r] = bb;
                best_val[r] = bv;
            }
            for (i64 t = indptr[r]; t < indptr[r + 1]; t++) {
                const i64 j = pos[indices[t]];
                if (j)
                    cset[j - 1] = 0;
            }
            stats[3]++;
        }
        for (i64 j = 0; j < m; j++)
            pos[touched[j]] = 0;
    }

    free(buf);
    free(touched);
    free(pos);
    free(corr);
    free(cset);
    free(move);
    free(rows);
    return swapped;
}

/* One sweep (above) over a cost table of kind cost_kind. */
i64 refine_sweep_incremental(i64 n, i64 p, void *cost, i64 cost_kind,
                             const void *dist_data, i64 dist_kind,
                             i64 *assign, const i64 *indptr,
                             const i64 *indices, const double *weights,
                             const i64 *perm, i64 *best_b, double *best_val,
                             unsigned char *valid, i64 *stats)
{
    const dtable dist = {dist_data, dist_kind, p};
    if (cost_kind == CT_I32)
        return sweep(n, p, (ctable){cost, 1}, dist, assign, indptr, indices,
                     weights, perm, best_b, best_val, valid, stats);
    return sweep(n, p, (ctable){cost, 0}, dist, assign, indptr, indices,
                 weights, perm, best_b, best_val, valid, stats);
}

/* TopoLB, first and second order (topolb12_loop): the cycle loop of
 * topolb.py's _run_reference.
 *
 * Per unassigned row t the reserve res_ids/res_vals[t * R ..] holds the
 * row's min(R, nfree) smallest free (value, id) entries, ascending, padded
 * with id -1; res_pos[t] is the entry f_min[t] / f_argmin[t] were read
 * from. A cycle:
 *
 * 1. selects the unassigned task tk with the first maximum score
 *    ("gain" f_sum / count - f_min, "max_cost" f_min, "volume" the static
 *    volumes in `score`) and places it on f_argmin[tk];
 * 2. takes pk out of the free set ("gain" also subtracts fest[:, pk] from
 *    the row sums in `score`);
 * 3. walks every unassigned row whose argmin was pk (ascending) to its
 *    next still-free reserve entry; a walk past the filled entries is an
 *    exhaustion (the reference's penalized padding), and the row joins the
 *    rebuild set;
 * 4. adds c * dist[pk] (first order) or c * (dist[pk] - avg) (second
 *    order) to every unassigned neighbour row of tk, in CSR order, reading
 *    one dist_row of pk (expanded into rowbuf on a grid) for them all;
 * 5. rebuilds the reserve of every exhausted or touched row, ascending,
 *    into dirty[0..k).
 *
 * Under "gain" the function returns k after a cycle with k > 0 dirty rows,
 * so the caller can set score[dirty] = fest[dirty] @ avail_f (BLAS
 * rounding depends on the batch shape, so that product stays the
 * caller's). It returns 0 once all cycles are done. The resumable state:
 * state[0] cycles run, [1] free processors, [2] reserve hits, [3] reserve
 * exhaustions, [4] rows rebuilt, [5] neighbour updates. free_ids holds the
 * state[1] free processors, ascending; avail_f is 1.0 at free processors
 * and 0.0 elsewhere. CSR indices must ascend within each row. dirty needs
 * room for 2n ids; its upper half is the exhaustion list. */
enum { SEL_GAIN, SEL_MAX_COST, SEL_VOLUME };

static void reserve_rebuild(i64 R, const double *restrict row,
                            const i64 *restrict free_ids, i64 nfree,
                            double *restrict vals, i64 *restrict ids)
{
    i64 m = 0;
    for (i64 j = 0; j < nfree; j++) {
        const i64 q = free_ids[j];
        const double v = row[q];
        if (m == R && !(v < vals[R - 1]))
            continue;
        i64 i = m < R ? m++ : R - 1;
        /* strict <: an equal value stays behind the lower id (stable) */
        for (; i > 0 && v < vals[i - 1]; i--) {
            vals[i] = vals[i - 1];
            ids[i] = ids[i - 1];
        }
        vals[i] = v;
        ids[i] = q;
    }
    for (; m < R; m++)
        ids[m] = -1;
}

static i64 topolb12_loop(i64 n, i64 p, i64 R, i64 order, i64 selection,
                         double *restrict fest, dtable dist,
                         const double *restrict avg,
                         const i64 *restrict indptr,
                         const i64 *restrict indices,
                         const double *restrict weights,
                         double *restrict score, double *restrict f_min,
                         i64 *restrict f_argmin, double *restrict res_vals,
                         i64 *restrict res_ids, i64 *restrict res_pos,
                         unsigned char *restrict unassigned,
                         i64 *restrict dirty, double *restrict avail_f,
                         i64 *restrict free_ids, i64 *restrict assignment,
                         int32_t *restrict rowbuf, i64 *restrict state)
{
    i64 cycle = state[0], count = state[1];
    i64 *restrict rescan = dirty + n;
    if (cycle == 0) {
        for (i64 t = 0; t < n; t++) {
            reserve_rebuild(R, fest + t * p, free_ids, count,
                            res_vals + t * R, res_ids + t * R);
            res_pos[t] = 0;
            f_min[t] = res_vals[t * R];
            f_argmin[t] = res_ids[t * R];
        }
    }
    i64 k = 0;
    while (cycle < n && count > 0) {
        i64 tk = -1;
        double best = 0.0;
        for (i64 t = 0; t < n; t++) {
            if (!unassigned[t])
                continue;
            const double s = selection == SEL_GAIN
                                 ? score[t] / (double)count - f_min[t]
                             : selection == SEL_MAX_COST ? f_min[t]
                                                         : score[t];
            if (tk < 0 || s > best) {
                best = s;
                tk = t;
            }
        }
        const i64 pk = f_argmin[tk];
        assignment[tk] = pk;
        unassigned[tk] = 0;
        avail_f[pk] = 0.0;
        count--;
        cycle++;
        if (count == 0)
            break;

        i64 lo = 0, hi = count; /* pk's slot among count + 1 free ids */
        while (lo < hi) {
            const i64 mid = (lo + hi) / 2;
            if (free_ids[mid] < pk)
                lo = mid + 1;
            else
                hi = mid;
        }
        memmove(free_ids + lo, free_ids + lo + 1,
                (size_t)(count - lo) * sizeof(i64));
        if (selection == SEL_GAIN)
            for (i64 t = 0; t < n; t++)
                if (unassigned[t])
                    score[t] -= fest[t * p + pk];

        i64 nr = 0;
        for (i64 t = 0; t < n; t++) {
            if (!unassigned[t] || f_argmin[t] != pk)
                continue;
            const i64 *ids = res_ids + t * R;
            i64 pos = res_pos[t] + 1;
            while (pos < R && ids[pos] >= 0 && avail_f[ids[pos]] == 0.0)
                pos++;
            if (pos < R && ids[pos] >= 0) {
                res_pos[t] = pos;
                f_min[t] = res_vals[t * R + pos];
                f_argmin[t] = ids[pos];
                state[2]++;
            } else {
                rescan[nr++] = t;
            }
        }
        state[3] += nr;

        /* Neighbour rows, merged with the ascending exhaustion list into
         * the ascending, duplicate-free rebuild set. pk's row is read at
         * the first unassigned neighbour. */
        drow dk = {NULL, 0};
        i64 i = 0;
        k = 0;
        for (i64 e = indptr[tk]; e < indptr[tk + 1]; e++) {
            const i64 j = indices[e];
            if (!unassigned[j])
                continue;
            if (!dk.data)
                dk = dist_row(dist, pk, rowbuf);
            const double c = weights[e];
            double *restrict row = fest + j * p;
            if (order == 1)
                for (i64 q = 0; q < p; q++)
                    row[q] += c * row_at(dk, q);
            else
                for (i64 q = 0; q < p; q++)
                    row[q] += c * (row_at(dk, q) - avg[q]);
            state[5]++;
            while (i < nr && rescan[i] < j)
                dirty[k++] = rescan[i++];
            if (i < nr && rescan[i] == j)
                i++;
            dirty[k++] = j;
        }
        while (i < nr)
            dirty[k++] = rescan[i++];

        for (i64 d = 0; d < k; d++) {
            const i64 t = dirty[d];
            reserve_rebuild(R, fest + t * p, free_ids, count,
                            res_vals + t * R, res_ids + t * R);
            res_pos[t] = 0;
            f_min[t] = res_vals[t * R];
            f_argmin[t] = res_ids[t * R];
        }
        state[4] += k;
        if (selection == SEL_GAIN && k > 0)
            break;
        k = 0;
    }
    state[0] = cycle;
    state[1] = count;
    return k;
}

/* A consumed processor's column in every unplaced third-order row: the
 * reference's additive penalty (topolb.py's huge, a sixteenth of the
 * float64 range). It is finite, so it meets a zero weight in the caller's
 * row sums as an exact zero, and no update of the row moves it: every term
 * added is far below half its ulp (about 1e291). */
#define CONSUMED (DBL_MAX / 16)

/* Vectors of the widest unit the build targets (-march), used only where
 * every lane's arithmetic is the scalar expression's: no reduction is
 * reassociated, so no result depends on the width. vdouble_u loads and
 * stores rows at any 8-byte alignment. */
#if defined(__AVX512F__)
#define VW 8
#elif defined(__AVX__)
#define VW 4
#else
#define VW 2
#endif
typedef double vdouble __attribute__((vector_size(VW * 8)));
typedef double vdouble_u __attribute__((vector_size(VW * 8), aligned(8)));
typedef long long vlong __attribute__((vector_size(VW * 8)));

/* One third-order row over all p columns (p >= 1): dst[q] = src[q] +
 * u * delta[q], and the first minimum of the new values: its value is
 * returned and its column stored in *argmin (ties go to the lowest id).
 * Consumed columns hold CONSUMED, so they never win while a column is
 * free. Four vector accumulators of VW lanes each keep the first minimum
 * of the columns q = 4 * VW * s + a * VW + lane; they meet by (value, id),
 * and the tail past the last full block of 4 * VW columns continues that
 * scan: the same result as one scan, without one long compare-and-select
 * chain. src and dst may be the same row. */
static double recentre_row(const double *src, double *dst, double u,
                           const double *restrict delta, i64 p,
                           i64 *restrict argmin)
{
    enum { BLOCK = 4 * VW };
    double best = 0.0;
    i64 bq = -1, q = 0;
    if (p >= BLOCK) {
        vdouble vu, bv[4];
        vlong id[4], bid[4];
        for (int l = 0; l < VW; l++)
            vu[l] = u;
        for (int a = 0; a < 4; a++) {
            for (int l = 0; l < VW; l++)
                id[a][l] = a * VW + l;
            const vdouble v = *(const vdouble_u *)(src + a * VW)
                              + vu * *(const vdouble_u *)(delta + a * VW);
            *(vdouble_u *)(dst + a * VW) = v;
            bv[a] = v;
            bid[a] = id[a];
        }
        for (q = BLOCK; q + BLOCK <= p; q += BLOCK)
            for (int a = 0; a < 4; a++) {
                const i64 c = q + a * VW;
                id[a] += BLOCK;
                const vdouble v = *(const vdouble_u *)(src + c)
                                  + vu * *(const vdouble_u *)(delta + c);
                *(vdouble_u *)(dst + c) = v;
                const vlong lt = v < bv[a];
                bv[a] = (vdouble)(((vlong)v & lt) | ((vlong)bv[a] & ~lt));
                bid[a] = (id[a] & lt) | (bid[a] & ~lt);
            }
        best = bv[0][0];
        bq = bid[0][0];
        for (int a = 0; a < 4; a++)
            for (int l = 0; l < VW; l++)
                if (bv[a][l] < best || (bv[a][l] == best && bid[a][l] < bq)) {
                    best = bv[a][l];
                    bq = bid[a][l];
                }
    }
    for (; q < p; q++) {
        const double v = src[q] + u * delta[q];
        dst[q] = v;
        if (bq < 0 || v < best) {
            best = v;
            bq = q;
        }
    }
    *argmin = bq;
    return best;
}

/* TopoLB, third order (topolb3_loop): the cycle loop of topolb.py's
 * _run_reference.
 *
 * Third order recentres every unplaced row on the shrinking free-processor
 * average, so every unplaced row is rebuilt every cycle and no reserve is
 * kept: a row whose argmin is consumed was rebuilt one cycle earlier, with
 * at least two processors free, so the reference's walk always hits its
 * next candidate. The unplaced rows live compacted in fest's first m row
 * slots, in ascending task order: slot_task[i] is the task in slot i and
 * task_slot[t] the slot of task t (-1 once placed). score, f_min and
 * f_argmin are per slot; uc (each task's volume to its unplaced
 * neighbours) is per task. Every processor is free when the run starts. A
 * cycle:
 *
 * 1. selects the slot with the first maximum score, as topolb12_loop does,
 *    and places its task tk on f_argmin;
 * 2. takes pk out of the free set: column pk of every unplaced slot
 *    becomes CONSUMED, the reference's penalized value;
 * 3. adds c * (dist[pk] - avg) to every unplaced neighbour row of tk, in
 *    CSR order, and subtracts c from its uc, reading one dist_row of pk
 *    (expanded into rowbuf on a grid) here and in step 4;
 * 4. shifts the free average, avg' = (avg * (count + 1) - dist[pk]) /
 *    count, and keeps delta = avg' - avg, both per column;
 * 5. recentres every other slot, fest[r, q] + uc[t] * delta[q], takes its
 *    first minimum (recentre_row) and moves it down over tk's slot; a slot
 *    whose argmin was pk counts as a reserve hit.
 *
 * Steps 3-5 make contiguous passes over all p columns of a row, the
 * consumed ones included, whose CONSUMED value they leave unchanged. Under
 * "gain" the function returns m after every cycle that leaves m > 0 rows
 * unplaced, so the caller can set score[:m] = fest[:m] @ avail_f: that
 * prefix has the shape and row order of the reference's fest[rows], BLAS
 * rounding depends on the shape, and 0 * CONSUMED adds an exact zero. It
 * returns 0 once all cycles are done. state is topolb12_loop's, reserve
 * exhaustions staying 0; delta (p doubles) must start zeroed. */
static i64 topolb3_loop(i64 n, i64 p, i64 selection, double *restrict fest,
                        dtable dist, double *restrict avg,
                        const i64 *restrict indptr,
                        const i64 *restrict indices,
                        const double *restrict weights,
                        double *restrict score, double *restrict uc,
                        double *restrict f_min, i64 *restrict f_argmin,
                        double *restrict delta, i64 *restrict slot_task,
                        i64 *restrict task_slot, double *restrict avail_f,
                        i64 *restrict assignment, int32_t *restrict rowbuf,
                        i64 *restrict state)
{
    i64 cycle = state[0], count = state[1];
    if (cycle == 0) /* delta is all zero before the first cycle */
        for (i64 i = 0; i < n; i++)
            f_min[i] = recentre_row(fest + i * p, fest + i * p, 0.0, delta,
                                    p, f_argmin + i);
    while (cycle < n && count > 0) {
        const i64 m = n - cycle - 1; /* rows left unplaced by this cycle */
        i64 sel = 0;
        double best = 0.0;
        for (i64 i = 0; i <= m; i++) {
            const double s = selection == SEL_GAIN
                                 ? score[i] / (double)count - f_min[i]
                             : selection == SEL_MAX_COST ? f_min[i]
                                                         : score[i];
            if (i == 0 || s > best) {
                best = s;
                sel = i;
            }
        }
        const i64 tk = slot_task[sel], pk = f_argmin[sel];
        assignment[tk] = pk;
        task_slot[tk] = -1;
        avail_f[pk] = 0.0;
        count--;
        cycle++;
        if (count == 0 || m == 0)
            break;
        for (i64 i = 0; i <= m; i++)
            fest[i * p + pk] = CONSUMED;

        const drow dk = dist_row(dist, pk, rowbuf);
        for (i64 e = indptr[tk]; e < indptr[tk + 1]; e++) {
            const i64 j = indices[e];
            if (task_slot[j] < 0)
                continue;
            const double c = weights[e];
            double *restrict row = fest + task_slot[j] * p;
            for (i64 q = 0; q < p; q++)
                row[q] += c * (row_at(dk, q) - avg[q]);
            uc[j] -= c;
            state[5]++;
        }

        for (i64 q = 0; q < p; q++) {
            const double next =
                (avg[q] * (double)(count + 1) - row_at(dk, q))
                / (double)count;
            delta[q] = next - avg[q];
            avg[q] = next;
        }

        for (i64 i = 0, d = 0; i <= m; i++) {
            if (i == sel)
                continue;
            const i64 t = slot_task[i];
            state[2] += f_argmin[i] == pk;
            score[d] = score[i];
            f_min[d] = recentre_row(fest + i * p, fest + d * p, uc[t], delta,
                                    p, f_argmin + d);
            slot_task[d] = t;
            task_slot[t] = d;
            d++;
        }
        state[4] += m;
        if (selection == SEL_GAIN) {
            state[0] = cycle;
            state[1] = count;
            return m;
        }
    }
    state[0] = cycle;
    state[1] = count;
    return 0;
}

/* The argument block of topolb_cycles: 8-byte words in this order, built
 * once per run by repro.mapping._native.TopoLBCycles. order 3 reads the
 * third-order fields (uc, delta, slot_task, task_slot) and ignores
 * reserve, the reserve arrays and free_ids; orders 1-2 the other way
 * round. dist and dist_kind are a dtable's first two fields; rowbuf is
 * dist_row's scratch. */
typedef struct {
    i64 n, p, reserve, order, selection;
    double *fest;
    const void *dist;
    i64 dist_kind;
    double *avg;
    const i64 *indptr, *indices;
    const double *weights;
    double *score, *uc, *f_min;
    i64 *f_argmin;
    double *res_vals;
    i64 *res_ids, *res_pos;
    unsigned char *unassigned;
    i64 *dirty;
    double *delta;
    i64 *slot_task, *task_slot;
    double *avail_f;
    i64 *free_ids, *assignment;
    int32_t *rowbuf;
    i64 *state;
} topolb_args;

_Static_assert(sizeof(void *) == sizeof(i64),
               "argument blocks are arrays of 8-byte words");
_Static_assert(sizeof(topolb_args) == 29 * sizeof(i64),
               "topolb_args is 29 words");

/* TopoLB's cycle loop for any order: one resumable call per pause, with
 * one pointer to the run's argument block. */
i64 topolb_cycles(const topolb_args *a)
{
    const dtable dist = {a->dist, a->dist_kind, a->p};
    if (a->order == 3)
        return topolb3_loop(a->n, a->p, a->selection, a->fest, dist,
                            a->avg, a->indptr, a->indices, a->weights,
                            a->score, a->uc, a->f_min, a->f_argmin,
                            a->delta, a->slot_task, a->task_slot,
                            a->avail_f, a->assignment, a->rowbuf, a->state);
    return topolb12_loop(a->n, a->p, a->reserve, a->order, a->selection,
                         a->fest, dist, a->avg, a->indptr, a->indices,
                         a->weights, a->score, a->f_min, a->f_argmin,
                         a->res_vals, a->res_ids, a->res_pos, a->unassigned,
                         a->dirty, a->avail_f, a->free_ids, a->assignment,
                         a->rowbuf, a->state);
}

/* TopoCentLB: the cycle loop of topocentlb.py's _run. A cycle
 *
 * 1. selects the task tk with the first maximum key (placed tasks hold
 *    -inf, so ties go to the lowest id);
 * 2. gathers tk's k placed neighbours, in CSR order: their weights into
 *    w[0..k) and G[i, f] = dist[assignment[j_i], free_ids[f]] into gather,
 *    column-major (gather[f * k + i]), for the m = state[1] free ids, from
 *    one dist_row per neighbour (expanded into rowbuf on a grid);
 * 3. pauses: with k > 0 it returns TC_COST, and the caller writes the
 *    BLAS product w @ G (its rounding depends on the operands' layout, so
 *    it stays the caller's) into cost[0..m); with k = 0 it returns
 *    TC_SEED, and the caller writes its processor into state[7];
 * 4. on the next call places tk on the first free processor of least cost,
 *    ties going to the least dist[anchor, q] (the anchor is the first
 *    seed's processor), or on the seed's processor;
 * 5. takes that processor out of free_ids (ascending), sets tk's key to
 *    -inf and adds w_tj to the key of every unplaced neighbour j, in CSR
 *    order.
 *
 * It returns TC_DONE once all n tasks are placed, and -1 when a seed's
 * processor is not free. The resumable state: state[0] cycles run, [1]
 * free processors, [2] the paused task (-1 before the first call), [3]
 * its k, [4] the anchor (-1 before the first seed), [5] key updates, [6]
 * seed placements, [7] the seed's processor. gather needs room for
 * k * m doubles, w for the largest degree, cost for p; rowbuf is dist_row's
 * scratch. dist and dist_kind are a dtable's first two fields. */
typedef struct {
    i64 n, p;
    const void *dist;
    i64 dist_kind;
    const i64 *indptr, *indices;
    const double *weights;
    double *keys;
    i64 *assignment, *free_ids;
    double *w, *gather, *cost;
    int32_t *rowbuf;
    i64 *state;
} topocent_args;

_Static_assert(sizeof(topocent_args) == 15 * sizeof(i64),
               "topocent_args is 15 words");

enum { TC_DONE, TC_COST, TC_SEED };

i64 topocent_cycles(const topocent_args *a)
{
    const i64 n = a->n, p = a->p;
    const dtable dist = {a->dist, a->dist_kind, p};
    const i64 *restrict indptr = a->indptr;
    const i64 *restrict indices = a->indices;
    const double *restrict weights = a->weights;
    double *restrict keys = a->keys;
    i64 *restrict assignment = a->assignment;
    i64 *restrict free_ids = a->free_ids;
    i64 *restrict state = a->state;
    i64 count = state[1];
    const i64 tk = state[2];

    if (tk >= 0) {
        i64 f = 0;
        if (state[3] == 0) {
            const i64 pk = state[7];
            i64 hi = count;
            while (f < hi) { /* pk's slot among the free ids */
                const i64 mid = (f + hi) / 2;
                if (free_ids[mid] < pk)
                    f = mid + 1;
                else
                    hi = mid;
            }
            if (f == count || free_ids[f] != pk)
                return -1;
            if (state[4] < 0)
                state[4] = pk;
            state[6]++;
        } else {
            const double *restrict cost = a->cost;
            const i64 anchor = state[4];
            for (i64 g = 1; g < count; g++)
                if (cost[g] < cost[f]
                    || (cost[g] == cost[f]
                        && dist_pair(dist, anchor, free_ids[g])
                               < dist_pair(dist, anchor, free_ids[f])))
                    f = g;
        }
        assignment[tk] = free_ids[f];
        count--;
        memmove(free_ids + f, free_ids + f + 1,
                (size_t)(count - f) * sizeof(i64));
        keys[tk] = -INFINITY;
        for (i64 e = indptr[tk]; e < indptr[tk + 1]; e++)
            if (assignment[indices[e]] < 0) {
                keys[indices[e]] += weights[e];
                state[5]++;
            }
        state[0]++;
        state[1] = count;
        state[2] = -1;
    }
    if (state[0] == n)
        return TC_DONE;

    i64 t = 0;
    for (i64 u = 1; u < n; u++)
        if (keys[u] > keys[t])
            t = u;
    double *restrict w = a->w;
    i64 k = 0;
    for (i64 e = indptr[t]; e < indptr[t + 1]; e++)
        if (assignment[indices[e]] >= 0)
            w[k++] = weights[e];
    double *restrict gather = a->gather;
    for (i64 e = indptr[t], i = 0; e < indptr[t + 1]; e++) {
        const i64 j = indices[e];
        if (assignment[j] < 0)
            continue;
        const drow d = dist_row(dist, assignment[j], a->rowbuf);
        for (i64 f = 0; f < count; f++)
            gather[f * k + i] = row_at(d, free_ids[f]);
        i++;
    }
    state[2] = t;
    state[3] = k;
    return k ? TC_COST : TC_SEED;
}

/* Phase-1 partitioner: one graph-growing bisection of order[lo..hi), the
 * body of repro/partition/recursive_bisection.py's list walk. order holds
 * m distinct vertex ids, all below the vertex count n of state and queue.
 *
 * 1. Pseudo-peripheral seed: two BFS sweeps, the first from order[lo + r];
 *    each sweep ends on the last vertex it enqueued.
 * 2. BFS growth from the seed while count < (hi - lo) - k2, stopping once
 *    count >= k1 and acc + 0.5 * vw[v] >= target; an empty queue restarts
 *    from the first unpicked member in order.
 * 3. Stable in-place split: picked members first, each side in its
 *    previous relative order.
 *
 * state (n bytes, all zero on entry and on return) marks the members:
 * 1 free, 2 queued or seen by the first sweep, 3 picked. The second sweep
 * walks the same component as the first, so it flips 2 back to 1 instead
 * of needing its own marks. queue (n) is FIFO space for the sweeps and the
 * growth, then the side-B buffer of the split. Returns |A|, or -1 when the
 * range arguments are out of bounds. */
i64 partition_bisect(i64 m, const i64 *restrict indptr,
                     const i64 *restrict indices,
                     const double *restrict vw, i64 *restrict order,
                     unsigned char *restrict state, i64 *restrict queue,
                     i64 lo, i64 hi, i64 r, i64 k1, i64 k2, double target)
{
    if (lo < 0 || hi > m || lo >= hi || r < 0 || r >= hi - lo || k1 < 0
        || k2 < 0)
        return -1;
    const i64 size = hi - lo;
    for (i64 i = lo; i < hi; i++)
        state[order[i]] = 1;

    i64 start = order[lo + r];
    for (int sweep = 0; sweep < 2; sweep++) {
        const unsigned char unseen = sweep ? 2 : 1;
        const unsigned char seen = sweep ? 1 : 2;
        i64 head = 0, tail = 0, last = start;
        state[start] = seen;
        queue[tail++] = start;
        while (head < tail) {
            const i64 v = queue[head++];
            for (i64 j = indptr[v]; j < indptr[v + 1]; j++) {
                const i64 u = indices[j];
                if (state[u] == unseen) {
                    state[u] = seen;
                    queue[tail++] = u;
                    last = u;
                }
            }
        }
        start = last;
    }

    i64 head = 0, tail = 0, count = 0, scan = lo;
    const i64 max_count = size - k2;
    double acc = 0.0;
    state[start] = 2;
    queue[tail++] = start;
    while (count < max_count) {
        if (head == tail) {
            while (scan < hi && state[order[scan]] == 3)
                scan++;
            if (scan == hi) /* only with repeated ids in order */
                break;
            state[order[scan]] = 2;
            queue[tail++] = order[scan];
        }
        const i64 v = queue[head++];
        if (count >= k1 && acc + 0.5 * vw[v] >= target)
            break;
        state[v] = 3;
        acc += vw[v];
        count++;
        for (i64 j = indptr[v]; j < indptr[v + 1]; j++) {
            const i64 u = indices[j];
            if (state[u] == 1) {
                state[u] = 2;
                queue[tail++] = u;
            }
        }
    }

    i64 na = 0, nb = 0;
    for (i64 i = lo; i < hi; i++) {
        const i64 v = order[i];
        if (state[v] == 3)
            order[lo + na++] = v;
        else
            queue[nb++] = v;
        state[v] = 0;
    }
    memcpy(order + lo + na, queue, (size_t)nb * sizeof(i64));
    return na;
}

/* NumPy's bit generator interface (numpy/random/bitgen.h): the state of
 * one np.random.Generator and its draw functions. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Generator.integers(0, n) for 1 <= n <= 2^32, with the same draws:
 * NumPy's random_bounded_uint64_fill for one value of range rng = n - 1,
 * which takes no draw at rng 0, one plain 32-bit draw at rng 2^32 - 1,
 * and otherwise Lemire's 32-bit multiply with rejection. */
static i64 draw_below(bitgen_t *bitgen, i64 n)
{
    const uint32_t rng = (uint32_t)(n - 1);
    if (rng == 0)
        return 0;
    if (rng == UINT32_MAX)
        return bitgen->next_uint32(bitgen->state);
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)bitgen->next_uint32(bitgen->state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bitgen->next_uint32(bitgen->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (i64)(m >> 32);
}

/* NumPy's pairwise float64 sum of a[0..n), the sum of a contiguous
 * array: a plain loop below 8 elements, eight accumulators up to 128,
 * else the two halves, split at a multiple of 8. */
static double pairwise_sum(const double *a, i64 n)
{
    if (n < 8) {
        double res = 0.;
        for (i64 i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        i64 i;
        for (i = 8; i < n - (n % 8); i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* The split recursion of partition_recursive over order[lo..hi) into k
 * leaves numbered from base. */
typedef struct {
    i64 m;
    const i64 *indptr, *indices;
    const double *vw;
    i64 *order;
    unsigned char *state;
    i64 *queue;
    double *gather;
    bitgen_t *bitgen;
    i64 *sizes;
} split_t;

static i64 split_range(const split_t *c, i64 lo, i64 hi, i64 k, i64 base)
{
    if (k == 1) {
        c->sizes[base] = hi - lo;
        return 0;
    }
    const i64 k1 = k / 2, k2 = k - k1;
    const i64 r = draw_below(c->bitgen, hi - lo);
    for (i64 i = lo; i < hi; i++)
        c->gather[i - lo] = c->vw[c->order[i]];
    const double target =
        (0.0 + pairwise_sum(c->gather, hi - lo)) * (double)k1 / (double)k;
    const i64 na = partition_bisect(c->m, c->indptr, c->indices, c->vw,
                                    c->order, c->state, c->queue, lo, hi, r,
                                    k1, k2, target);
    if (na < 0 || split_range(c, lo, lo + na, k1, base) < 0)
        return -1;
    return split_range(c, lo + na, hi, k2, base + k1);
}

/* Phase-1 partitioner: the whole recursive bisection of order[0..m) into
 * k leaves, the body of repro/partition/recursive_bisection.py's
 * _split_lists. A range of k > 1 leaves splits into k1 = k / 2 and
 * k2 = k - k1: it draws r as Generator.integers(0, hi - lo) through
 * bitgen (the caller holds the Generator's lock), takes side A's target
 * as NumPy's pairwise sum of the range's vertex weights in order times k1
 * / k, and bisects with partition_bisect, side A then side B recursing
 * in that order. Leaf sizes go to sizes[0..k), leaves in order; order
 * ends grouped leaf by leaf. state and queue are partition_bisect's;
 * gather (m doubles) is scratch. Returns 0, or -1 when k is out of range
 * or a range is too large to draw from. */
i64 partition_recursive(i64 m, const i64 *restrict indptr,
                        const i64 *restrict indices,
                        const double *restrict vw, i64 *restrict order,
                        unsigned char *restrict state, i64 *restrict queue,
                        double *restrict gather, i64 k, void *bitgen,
                        i64 *restrict sizes)
{
    if (k < 1 || k > m || m - 1 > (i64)UINT32_MAX)
        return -1;
    const split_t c = {m, indptr, indices, vw, order, state, queue, gather,
                       bitgen, sizes};
    return split_range(&c, 0, m, k, 0);
}

/* One FM pass of repro/partition/refinement.py's refine_kway over
 * perm[0..n): each vertex with a neighbour and a source group of two or
 * more members moves to the group of its strictly largest gain
 * conn[g] - conn[src] > 0 whose load stays within max_load. conn sums edge
 * bytes per group in neighbour order into conn (k doubles, zero on entry
 * and on return); cand (k) lists the groups in first-seen order, so a gain
 * tie goes to the first-seen group, as in the dict of the list walk.
 * groups, loads and counts update in place. Returns 1 if a vertex moved. */
i64 partition_refine_pass(i64 n, const i64 *restrict indptr,
                          const i64 *restrict indices,
                          const double *restrict vw,
                          const double *restrict ew, i64 *restrict groups,
                          double *restrict loads, i64 *restrict counts,
                          const i64 *restrict perm, double max_load,
                          double *restrict conn, unsigned char *restrict seen,
                          i64 *restrict cand)
{
    i64 moved = 0;
    for (i64 i = 0; i < n; i++) {
        const i64 v = perm[i];
        const i64 src = groups[v];
        const i64 lo = indptr[v], hi = indptr[v + 1];
        if (counts[src] <= 1 || lo == hi)
            continue;
        i64 m = 0;
        for (i64 j = lo; j < hi; j++) {
            const i64 g = groups[indices[j]];
            if (!seen[g]) {
                seen[g] = 1;
                cand[m++] = g;
            }
            conn[g] = conn[g] + ew[j];
        }
        const double internal = conn[src];
        const double w = vw[v];
        i64 best_g = -1;
        double best_gain = 0.0;
        for (i64 c = 0; c < m; c++) {
            const i64 g = cand[c];
            if (g == src)
                continue;
            const double gain = conn[g] - internal;
            if (gain > best_gain && loads[g] + w <= max_load) {
                best_g = g;
                best_gain = gain;
            }
        }
        for (i64 c = 0; c < m; c++) {
            conn[cand[c]] = 0.0;
            seen[cand[c]] = 0;
        }
        if (best_g >= 0) {
            groups[v] = best_g;
            loads[src] -= w;
            loads[best_g] += w;
            counts[src]--;
            counts[best_g]++;
            moved = 1;
        }
    }
    return moved;
}
