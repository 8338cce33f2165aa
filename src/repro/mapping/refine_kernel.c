/* refine_kernel.c — compiled inner loops for the mapper and partitioner
 * production paths.
 *
 * Seven entry points, one shared object:
 *
 * refine_cost_table — RefineTopoLB's first-order cost table, accumulated
 * in SciPy's csr_matvecs order.
 *
 * refine_sweep_incremental — ONE full sweep of RefineTopoLB's pairwise-swap
 * refiner with the incremental delta structure: per-task best-swap caches
 * (best_b, best_val, valid) that persist across sweeps, invalidated/folded
 * by the dirty set of each accepted swap ({a, b} ∪ N(a) ∪ N(b) — exactly
 * the rows/columns the cost-table patch mutates).
 *
 * topolb_cycles — the cycle loop of first- and second-order TopoLB: task
 * selection, the stale-argmin walk over a sorted reserve, the neighbour-row
 * updates and the reserve rebuilds. Under the "gain" rule it pauses after
 * every cycle that dirtied rows so the caller can refresh their row sums.
 *
 * topolb3_cycles — the cycle loop of third-order TopoLB: selection, the
 * neighbour-row updates, and the O(n·p) recentre of every unplaced row on
 * the shrunken free-processor average with its first minimum, over the
 * free columns only, compacting the unplaced rows to the top of fest.
 * Under the "gain" rule it pauses after every cycle so the caller can
 * refresh the row sums of that compacted prefix.
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
 * _run_reference; and the list walks of repro/partition/
 * recursive_bisection.py and refinement.py, whose Generator.integers
 * draws and ndarray.sum calls partition_recursive repeats), and the build
 * uses -ffp-contract=off so no fused-multiply-add changes rounding. The
 * equivalence suites pin compiled and reference results to be bitwise
 * equal.
 *
 * Compiled on demand by repro.mapping._native via the system C compiler;
 * when no toolchain is available each call site runs its reference body
 * instead: the "reference" loops of refine.py and topolb.py, and the
 * partitioner's walks over csr_lists (_bisect_lists, _split_lists,
 * _refine_pass_lists).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* RefineTopoLB's cost table C[t, q] = sum over neighbours j of
 * w_tj * dist[assign[j], q], row by row in CSR order: zero the row, then
 * add w * dist[assign[j]] per nonzero — the order of SciPy's csr_matvecs,
 * so the table is bitwise equal to `csr_matrix(...) @ dist`. */
void refine_cost_table(i64 n, i64 p, const i64 *restrict indptr,
                       const i64 *restrict indices,
                       const double *restrict weights,
                       const i64 *restrict assign,
                       const double *restrict dist, double *restrict cost)
{
    for (i64 t = 0; t < n; t++) {
        double *restrict row = cost + t * p;
        memset(row, 0, (size_t)p * sizeof(double));
        for (i64 k = indptr[t]; k < indptr[t + 1]; k++) {
            const double w = weights[k];
            const double *restrict d = dist + assign[indices[k]] * p;
            for (i64 q = 0; q < p; q++)
                row[q] += w * d[q];
        }
    }
}

/* Reference row evaluation for task `a`: delta against every candidate b,
 * written into buf[0..n), then first-minimum argmin (np.argmin semantics).
 * Term order per element:  ((C[a,pb] + C[b,pa]) - C[a,pa]) - C[b,pb],
 * then += (2.0 * w) * dist[pa, pb'] at neighbor positions, then
 * buf[a] = 0.0. */
static void compute_row(i64 n, i64 p, const double *cost, const double *dist,
                        const i64 *assign, const i64 *indptr,
                        const i64 *indices, const double *weights,
                        double *buf, i64 a, i64 *bb_out, double *bv_out)
{
    const i64 pa = assign[a];
    const double capa = cost[a * p + pa];
    const double *arow = cost + a * p;
    for (i64 b = 0; b < n; b++) {
        const i64 pb = assign[b];
        buf[b] = ((arow[pb] + cost[b * p + pa]) - capa) - cost[b * p + pb];
    }
    const double *drow = dist + pa * p;
    for (i64 k = indptr[a]; k < indptr[a + 1]; k++) {
        const i64 b = indices[k];
        buf[b] += (2.0 * weights[k]) * drow[assign[b]];
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
 * and of b (sign -1). `move` is caller-owned scratch of p doubles. */
static void apply_swap(i64 p, double *cost, const double *dist, i64 *assign,
                       const i64 *indptr, const i64 *indices,
                       const double *weights, double *move, i64 a, i64 b)
{
    const i64 pa = assign[a], pb = assign[b];
    if (a == b || pa == pb)
        return;
    assign[a] = pb;
    assign[b] = pa;
    const double *db = dist + pb * p;
    const double *da = dist + pa * p;
    for (i64 q = 0; q < p; q++)
        move[q] = db[q] - da[q];
    for (int side = 0; side < 2; side++) {
        const i64 t = side ? b : a;
        const double sign = side ? -1.0 : 1.0;
        for (i64 k = indptr[t]; k < indptr[t + 1]; k++) {
            double *crow = cost + indices[k] * p;
            const double sw = sign * weights[k];
            for (i64 q = 0; q < p; q++)
                crow[q] += sw * move[q];
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
 * from scratch, [3] rows folded. Returns 1 if any swap was accepted. */
i64 refine_sweep_incremental(i64 n, i64 p, double *cost, const double *dist,
                             i64 *assign, const i64 *indptr,
                             const i64 *indices, const double *weights,
                             const i64 *perm, i64 *best_b, double *best_val,
                             unsigned char *valid, i64 *stats)
{
    double *buf = (double *)malloc((size_t)n * sizeof(double));
    i64 *touched = (i64 *)malloc((size_t)(2 * n + 2) * sizeof(i64));
    i64 *pos = (i64 *)calloc((size_t)n, sizeof(i64));
    double *corr = (double *)malloc((size_t)n * sizeof(double));
    unsigned char *cset = (unsigned char *)calloc((size_t)n, 1);
    double *move = (double *)malloc((size_t)p * sizeof(double));
    if (!buf || !touched || !pos || !corr || !cset || !move) {
        free(buf); free(touched); free(pos); free(corr); free(cset);
        free(move);
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
        apply_swap(p, cost, dist, assign, indptr, indices, weights, move, a, b);

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
            const double crr = cost[r * p + pr];
            const double *rrow = cost + r * p;
            const double *drow = dist + pr * p;
            for (i64 t = indptr[r]; t < indptr[r + 1]; t++) {
                const i64 j = pos[indices[t]];
                if (j) {
                    corr[j - 1] = (2.0 * weights[t]) * drow[assign[indices[t]]];
                    cset[j - 1] = 1;
                }
            }
            i64 bb = best_b[r];
            double bv = best_val[r];
            int updated = 0;
            for (i64 j = 0; j < m; j++) {
                const i64 d = touched[j];
                const i64 pd = assign[d];
                double v = ((rrow[pd] + cost[d * p + pr]) - crr)
                           - cost[d * p + pd];
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
    return swapped;
}

/* TopoLB, first and second order: the cycle loop of topolb.py's
 * _run_reference.
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
 *    order) to every unassigned neighbour row of tk, in CSR order;
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

i64 topolb_cycles(i64 n, i64 p, i64 R, i64 order, i64 selection,
                  double *restrict fest, const double *restrict dist,
                  const double *restrict avg, const i64 *restrict indptr,
                  const i64 *restrict indices,
                  const double *restrict weights, double *restrict score,
                  double *restrict f_min, i64 *restrict f_argmin,
                  double *restrict res_vals, i64 *restrict res_ids,
                  i64 *restrict res_pos, unsigned char *restrict unassigned,
                  i64 *restrict dirty, double *restrict avail_f,
                  i64 *restrict free_ids, i64 *restrict assignment,
                  i64 *restrict state)
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
         * the ascending, duplicate-free rebuild set. */
        const double *restrict dk = dist + pk * p;
        i64 i = 0;
        k = 0;
        for (i64 e = indptr[tk]; e < indptr[tk + 1]; e++) {
            const i64 j = indices[e];
            if (!unassigned[j])
                continue;
            const double c = weights[e];
            double *restrict row = fest + j * p;
            if (order == 1)
                for (i64 q = 0; q < p; q++)
                    row[q] += c * dk[q];
            else
                for (i64 q = 0; q < p; q++)
                    row[q] += c * (dk[q] - avg[q]);
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

/* One third-order row: dst[q] = src[q] + u * delta[f] for each free column
 * q = free_ids[f], f < count (count >= 1, ids ascending), and the first
 * minimum of the new values: its value is returned and its column stored
 * in *argmin (ties go to the lowest id). Each of four lanes keeps its own
 * first minimum over an ascending subsequence of the columns, and the
 * lanes meet by (value, id): the same result as one scan, without one long
 * compare-and-select chain. src and dst may be the same row. */
static double recentre_row(const double *src, double *dst, double u,
                           const double *restrict delta,
                           const i64 *restrict free_ids, i64 count,
                           i64 *restrict argmin)
{
    double bv[4] = {0.0, 0.0, 0.0, 0.0};
    i64 bq[4] = {0, 0, 0, 0};
    const i64 lanes = count < 4 ? count : 4;
    for (i64 k = 0; k < lanes; k++) {
        const i64 q = free_ids[k];
        bv[k] = dst[q] = src[q] + u * delta[k];
        bq[k] = q;
    }
    i64 f = lanes;
    for (; f + 4 <= count; f += 4)
        for (i64 k = 0; k < 4; k++) {
            const i64 q = free_ids[f + k];
            const double v = src[q] + u * delta[f + k];
            dst[q] = v;
            if (v < bv[k]) {
                bv[k] = v;
                bq[k] = q;
            }
        }
    for (i64 k = 0; f < count; f++, k++) {
        const i64 q = free_ids[f];
        const double v = src[q] + u * delta[f];
        dst[q] = v;
        if (v < bv[k]) {
            bv[k] = v;
            bq[k] = q;
        }
    }
    i64 best = 0;
    for (i64 k = 1; k < lanes; k++)
        if (bv[k] < bv[best] || (bv[k] == bv[best] && bq[k] < bq[best]))
            best = k;
    *argmin = bq[best];
    return bv[best];
}

/* TopoLB, third order: the cycle loop of topolb.py's _run_reference.
 *
 * Third order recentres every unplaced row on the shrinking free-processor
 * average, so every unplaced row is rebuilt every cycle and no reserve is
 * kept: a row whose argmin is consumed was rebuilt one cycle earlier, with
 * at least two processors free, so the reference's walk always hits its
 * next candidate. The unplaced rows live compacted in fest's first m row
 * slots, in ascending task order: slot_task[i] is the task in slot i and
 * task_slot[t] the slot of task t (-1 once placed). score, f_min and
 * f_argmin are per slot; uc (each task's volume to its unplaced
 * neighbours) is per task. A cycle:
 *
 * 1. selects the slot with the first maximum score, as topolb_cycles does,
 *    and places its task tk on f_argmin;
 * 2. takes pk out of the free set;
 * 3. adds c * (dist[pk] - avg) to every unplaced neighbour row of tk, in
 *    CSR order, and subtracts c from its uc;
 * 4. shifts the free average, avg' = (avg * (count + 1) - dist[pk]) /
 *    count, and keeps delta[f] = avg'[q] - avg[q] for q = free_ids[f];
 * 5. recentres every other slot, fest[r, q] + uc[t] * delta[f], takes its
 *    first minimum (ties go to the lowest id) and moves it down over tk's
 *    slot; a slot whose argmin was pk counts as a reserve hit.
 *
 * Steps 3-5 read and write the free columns only (free_ids, ascending). A
 * consumed column of a slot keeps a stale but finite value,
 * which is read again only through a zero weight in avail_f. Under "gain"
 * the function returns m after every cycle that leaves m > 0 rows
 * unplaced, so the caller can set score[:m] = fest[:m] @ avail_f: that
 * prefix has the shape and row order of the reference's fest[rows], and
 * BLAS rounding depends on the shape. It returns 0 once all cycles are
 * done. state is topolb_cycles's, reserve exhaustions staying 0; delta
 * (count doubles) must start zeroed. */
i64 topolb3_cycles(i64 n, i64 p, i64 selection, double *restrict fest,
                   const double *restrict dist, double *restrict avg,
                   const i64 *restrict indptr, const i64 *restrict indices,
                   const double *restrict weights, double *restrict score,
                   double *restrict uc, double *restrict f_min,
                   i64 *restrict f_argmin, double *restrict delta,
                   i64 *restrict slot_task, i64 *restrict task_slot,
                   double *restrict avail_f, i64 *restrict free_ids,
                   i64 *restrict assignment, i64 *restrict state)
{
    i64 cycle = state[0], count = state[1];
    if (cycle == 0) /* delta is all zero before the first cycle */
        for (i64 i = 0; i < n; i++)
            f_min[i] = recentre_row(fest + i * p, fest + i * p, 0.0, delta,
                                    free_ids, count, f_argmin + i);
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

        const double *restrict dk = dist + pk * p;
        for (i64 e = indptr[tk]; e < indptr[tk + 1]; e++) {
            const i64 j = indices[e];
            if (task_slot[j] < 0)
                continue;
            const double c = weights[e];
            double *restrict row = fest + task_slot[j] * p;
            for (i64 f = 0; f < count; f++) {
                const i64 q = free_ids[f];
                row[q] += c * (dk[q] - avg[q]);
            }
            uc[j] -= c;
            state[5]++;
        }

        for (i64 f = 0; f < count; f++) {
            const i64 q = free_ids[f];
            const double next =
                (avg[q] * (double)(count + 1) - dk[q]) / (double)count;
            delta[f] = next - avg[q];
            avg[q] = next;
        }

        for (i64 i = 0, d = 0; i <= m; i++) {
            if (i == sel)
                continue;
            const i64 t = slot_task[i];
            state[2] += f_argmin[i] == pk;
            score[d] = score[i];
            f_min[d] = recentre_row(fest + i * p, fest + d * p, uc[t], delta,
                                    free_ids, count, f_argmin + d);
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
