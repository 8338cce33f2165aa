"""TopoLB — the paper's mapping heuristic (Algorithm 1, Section 4).

Every cycle TopoLB picks the unplaced task whose placement is *most
critical*: the one with the largest gap between its expected cost on an
arbitrary free processor (``FAvg``) and its cost on its best free processor
(``FMin``), then places it on that best processor. Costs come from the
estimation function of Section 4.3 (see :mod:`repro.mapping.estimation`).

Implementation follows Section 4.4: a ``p x p`` table of ``fest(t, q)``
values is maintained incrementally —

* placing ``t_k`` on ``p_k`` only perturbs the rows of ``t_k``'s unplaced
  neighbors (their edge to ``t_k`` switches from the "expected distance" term
  to the exact ``c * d(q, p_k)`` term), costing ``O(p * deg(t_k))`` per cycle
  and ``O(p |Et|)`` overall for the first/second-order estimators;
* the third-order estimator additionally refreshes every row because the
  free-processor average distance changes when ``p_k`` is consumed —
  ``O(p^2)`` per cycle, ``O(p^3)`` overall (why the paper ships 2nd order).

Selection state (``FMin``, ``FAvg`` per row) is maintained across cycles;
when the consumed processor was some row's argmin, only those rows are
re-reduced (lazy repair) instead of rescanning the whole table.

Two kernels implement the cycle body (see :mod:`repro.mapping.kernels`):
``"vectorized"`` (default) batches the neighbor-row updates and the
stale-argmin repair across whole index arrays per NumPy call;
``"reference"`` keeps the original scalar loops. Under ``"vectorized"`` the
third-order estimator has a loop of its own, which drops the reserve it
never reads and runs its per-cycle recentre-and-argmin pass compiled
(:mod:`repro.mapping._native`); without a C compiler it runs the reference
loop instead. All paths produce bit-identical assignments — the equivalence
suite enforces it — so the reference path doubles as the executable
specification of the fast ones.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.exceptions import MappingError
from repro.mapping import _native
from repro.mapping.base import Mapper, Mapping, resolve_allowed
from repro.mapping.context import MappingContext, context_for
from repro.mapping.estimation import EstimatorOrder
from repro.mapping.kernels import resolve_kernel
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology

__all__ = ["TopoLB"]


#: Valid task-selection rules (see TopoLB docstring).
_SELECTION_RULES = ("gain", "max_cost", "volume")


class TopoLB(Mapper):
    """The paper's topology-aware mapper.

    Parameters
    ----------
    order:
        Which estimation function to use (default: second order, the paper's
        shipped configuration).
    selection:
        Which unplaced task each cycle picks — an ablation hook around the
        paper's core design decision:

        * ``"gain"`` (the paper): maximum criticality ``FAvg - FMin`` — the
          task that loses the most if deferred to an arbitrary processor;
        * ``"max_cost"``: maximum ``FMin`` — the task whose *best* placement
          is already costliest ("hardest first");
        * ``"volume"``: maximum total communication volume ("chattiest
          first", selection decoupled from the topology).
    kernel:
        ``"vectorized"`` (batched NumPy cycle body, the default),
        ``"reference"`` (the original scalar loops), or ``None`` for the
        default (:data:`repro.mapping.kernels.DEFAULT_KERNEL`).
    """

    strategy_name = "TopoLB"

    def __init__(
        self,
        order: EstimatorOrder | int = EstimatorOrder.SECOND,
        selection: str = "gain",
        kernel: str | None = None,
    ):
        self._order = EstimatorOrder(order)
        if selection not in _SELECTION_RULES:
            raise MappingError(
                f"selection must be one of {_SELECTION_RULES}, got {selection!r}"
            )
        self._selection = selection
        self._kernel = resolve_kernel(kernel)

    @property
    def order(self) -> EstimatorOrder:
        """The configured estimator order."""
        return self._order

    @property
    def selection(self) -> str:
        """The configured task-selection rule."""
        return self._selection

    @property
    def kernel(self) -> str:
        """The resolved kernel name ("vectorized" or "reference")."""
        return self._kernel

    def map(
        self,
        graph: TaskGraph,
        topology: Topology,
        allowed: np.ndarray | None = None,
        *,
        ctx: MappingContext | None = None,
    ) -> Mapping:
        """Map ``graph`` onto ``topology``.

        ``allowed`` restricts placement to a boolean processor mask (degraded
        machines); ``None`` auto-derives the mask from a
        :class:`~repro.faults.DegradedTopology` and means "every processor"
        elsewhere. Masked runs place ``n <= p'`` tasks onto the ``p'``
        allowed processors and raise :class:`MappingError` when capacity is
        insufficient. ``ctx`` supplies shared per-(graph, topology) tables;
        ``None`` uses the process-wide shared context.
        """
        allowed = resolve_allowed(topology, allowed)
        n = self._check_sizes(graph, topology, allowed)
        if ctx is None:
            ctx = context_for(graph, topology)
        if self._kernel == "reference":
            run = self._run_reference
        elif self._order is not EstimatorOrder.THIRD:
            run = self._run_vectorized
        elif _native.kernels_or_fallback() is not None:
            run = self._run_third_order
        else:
            run = self._run_reference
        prof = obs.active()
        if prof is None:
            assignment = run(graph, topology, n, allowed=allowed, ctx=ctx)
        else:
            with prof.timer("topolb.map"):
                assignment = run(graph, topology, n, prof, allowed=allowed, ctx=ctx)
        return Mapping(graph, topology, assignment)

    # ------------------------------------------------------------------ core
    #: Cached candidate minima per row. When a row's best free processor is
    #: consumed, the next cached candidate takes over in O(1); a full O(p)
    #: row rescan happens only when the whole reserve has been consumed —
    #: this is what keeps the symmetric-instance worst case (hundreds of rows
    #: sharing one argmin) from degrading every cycle to O(n p).
    _RESERVE = 8

    def _setup(self, graph: TaskGraph, topology: Topology, n: int,
               allowed: np.ndarray | None = None,
               ctx: MappingContext | None = None):
        """Shared kernel state: fest table, selection vectors, reserve arrays."""
        if ctx is None:
            ctx = context_for(graph, topology)
        dist = ctx.distance_matrix(np.float64)
        indptr, indices, weights = ctx.csr_arrays()

        order = self._order
        # Bytes from each task to its not-yet-placed neighbors.
        # comm_volumes() returns a fresh array, which the third-order path
        # may mutate.
        unplaced_comm = graph.comm_volumes()

        # avg_all is never mutated, so aliasing the shared read-only vector
        # is safe (avg_free, which the third-order path does mutate, is a
        # real copy). Masked runs take the expectation over the *allowed*
        # set — the "arbitrary processor" a deferred task could land on is a
        # healthy one — which is a per-fault-pattern vector, computed fresh
        # (cheap, O(p * p'), and never shared-cached under the pristine key).
        avg_all = ctx.average_distance_vector(allowed)
        avg_free = avg_all.copy()  # only consulted by the third-order path

        # fest table: rows = tasks, columns = processors (p columns; equal to
        # n in the classic unmasked case).
        p = topology.num_nodes
        if order is EstimatorOrder.FIRST:
            fest = np.zeros((n, p), dtype=np.float64)
        else:
            # outer() of two float64 arrays is already float64: no astype copy.
            fest = np.outer(unplaced_comm, avg_free)
        return dist, indptr, indices, weights, unplaced_comm, avg_all, avg_free, fest

    def _run_reference(
        self,
        graph: TaskGraph,
        topology: Topology,
        n: int,
        prof: obs.Profiler | None = None,
        allowed: np.ndarray | None = None,
        ctx: MappingContext | None = None,
    ) -> np.ndarray:
        """The original scalar cycle body — kept verbatim as the executable
        specification the vectorized kernel is tested against."""
        (dist, indptr, indices, weights, unplaced_comm,
         avg_all, avg_free, fest) = self._setup(graph, topology, n, allowed, ctx)
        order = self._order
        p = topology.num_nodes

        avail = np.ones(p, dtype=bool) if allowed is None else allowed.copy()
        unassigned = np.ones(n, dtype=bool)
        avail_count = int(avail.sum())
        assignment = np.full(n, -1, dtype=np.int64)
        # Additive penalty pushing consumed processors out of row minima
        # (a fraction of the float64 range, so sums never overflow). Disallowed
        # processors start penalized, which keeps them out of every reserve
        # and argmin for the whole run — the reserve never needs more than
        # n <= p' candidates, so the genuine (allowed) entries always fill it
        # ahead of penalized ones.
        huge = np.finfo(np.float64).max / 16
        penalty = np.zeros(p, dtype=np.float64)
        if allowed is not None:
            penalty[~avail] = huge

        # Row sums over the *free* columns: all p columns in the classic
        # case, the allowed subset under a mask (disallowed columns are
        # never consumed, so the incremental "-= fest[:, pk]" bookkeeping
        # stays consistent only if they are excluded from the start).
        if allowed is None:
            f_sum = fest.sum(axis=1)
        else:
            f_sum = fest @ avail.astype(np.float64)
        f_min = np.empty(n, dtype=np.float64)
        f_argmin = np.empty(n, dtype=np.int64)

        reserve = min(self._RESERVE, n)
        res_vals = np.empty((n, reserve), dtype=np.float64)
        res_ids = np.empty((n, reserve), dtype=np.int64)
        res_pos = np.zeros(n, dtype=np.int64)

        def rebuild(rows: np.ndarray) -> None:
            """Recompute the cached smallest-`reserve` free processors per row.

            A *stable* full sort breaks value ties by the lowest processor id
            — the same deterministic choice a plain ``argmin`` scan makes —
            which matters on symmetric instances where huge tie classes arise
            and the tie-break decides the growth pattern.
            """
            block = fest[rows] + penalty
            ids = np.argsort(block, axis=1, kind="stable")[:, :reserve]
            res_ids[rows] = ids
            res_vals[rows] = np.take_along_axis(block, ids, axis=1)
            res_pos[rows] = 0
            f_min[rows] = res_vals[rows, 0]
            f_argmin[rows] = res_ids[rows, 0]

        rebuild(np.arange(n))

        static_volumes = graph.comm_volumes()
        neg_inf = -np.inf
        # Lazy-repair telemetry (flushed to ``prof`` once, after the loop).
        cycles = reserve_hits = reserve_exhaustions = 0
        rows_rebuilt = neighbor_updates = 0
        for _cycle in range(n):
            # --- select the next task (default: max criticality gain) ------
            if self._selection == "gain":
                score = f_sum / avail_count - f_min
            elif self._selection == "max_cost":
                score = f_min
            else:  # "volume"
                score = static_volumes
            tk = int(np.argmax(np.where(unassigned, score, neg_inf)))
            pk = int(f_argmin[tk])
            assignment[tk] = pk
            unassigned[tk] = False
            avail[pk] = False
            avail_count -= 1
            if prof is not None:
                cycles += 1
            if avail_count == 0:
                break
            penalty[pk] = huge

            # --- processor pk leaves the free set --------------------------
            f_sum -= fest[:, pk]
            rescan: list[int] = []
            stale_rows = np.flatnonzero(unassigned & (f_argmin == pk))
            for t in stale_rows:
                t = int(t)
                pos = int(res_pos[t]) + 1
                while pos < reserve and not avail[res_ids[t, pos]]:
                    pos += 1
                if pos < reserve:
                    res_pos[t] = pos
                    f_min[t] = res_vals[t, pos]
                    f_argmin[t] = res_ids[t, pos]
                else:
                    rescan.append(t)
            if prof is not None:
                reserve_exhaustions += len(rescan)
                reserve_hits += len(stale_rows) - len(rescan)

            # --- neighbor rows: the (j, tk) edge cost becomes exact --------
            lo, hi = indptr[tk], indptr[tk + 1]
            dist_pk = dist[pk]
            touched: list[int] = []
            for j, c in zip(indices[lo:hi], weights[lo:hi]):
                j = int(j)
                if not unassigned[j]:
                    continue
                if order is EstimatorOrder.FIRST:
                    fest[j] += c * dist_pk
                elif order is EstimatorOrder.SECOND:
                    fest[j] += c * (dist_pk - avg_all)
                else:
                    fest[j] += c * (dist_pk - avg_free)
                unplaced_comm[j] -= c
                touched.append(j)
            if prof is not None:
                neighbor_updates += len(touched)

            if order is EstimatorOrder.THIRD:
                # Free-processor average shrinks by pk's contribution; every
                # row's expected-distance term shifts accordingly (O(p^2)).
                new_avg = (avg_free * (avail_count + 1) - dist_pk) / avail_count
                delta = new_avg - avg_free
                avg_free = new_avg
                rows = np.flatnonzero(unassigned)
                fest[rows] += np.outer(unplaced_comm[rows], delta)
                touched = [int(r) for r in rows]

            # --- repair row reductions --------------------------------------
            dirty = np.unique(np.asarray(rescan + touched, dtype=np.int64))
            if len(dirty):
                rebuild(dirty)
                f_sum[dirty] = fest[dirty] @ avail.astype(np.float64)
            if prof is not None:
                rows_rebuilt += len(dirty)

        if prof is not None:
            prof.count("topolb.cycles", cycles)
            prof.count("topolb.reserve_hits", reserve_hits)
            prof.count("topolb.reserve_exhaustions", reserve_exhaustions)
            prof.count("topolb.rows_rebuilt", rows_rebuilt)
            prof.count("topolb.neighbor_updates", neighbor_updates)
        return assignment

    def _run_vectorized(
        self,
        graph: TaskGraph,
        topology: Topology,
        n: int,
        prof: obs.Profiler | None = None,
        allowed: np.ndarray | None = None,
        ctx: MappingContext | None = None,
    ) -> np.ndarray:
        """Batched cycle body — bit-identical assignments to the reference.

        Two structural changes over the reference, neither observable in the
        output:

        * **Lazy reserve.** The reference stable-sorts every dirty row each
          cycle to refresh its cached candidate list, but a touched row only
          ever *reads* that list on a later stale-argmin event — most sorts
          are thrown away unread. Here a dirty row merely records its
          rebuild epoch; ``f_min``/``f_argmin`` come from an O(free) argmin
          (the head of the sorted list, without the sort). A stale event
          then *replays* the walk the reference would have made: processors
          are consumed one per cycle and never returned, so the consumption
          log recovers any epoch's free set, and the walk's outcome is
          decided by ranking the row's current free argmin against the
          since-consumed candidates (see the inline proof). No candidate
          list is ever materialized; per-row sorts disappear entirely.
        * **Poisoned selection.** Assigned rows get sentinel scores
          (``-inf``/``+inf``) instead of being masked out with ``np.where``
          every cycle, and ``f_argmin`` is poisoned to ``-1`` so the stale
          scan needs no ``unassigned &`` mask. Sentinels strictly lose every
          argmax, so selection among unassigned rows is untouched.

        All floating-point expressions keep the reference kernel's
        elementwise evaluation order so tie-breaks cannot diverge.
        """
        if ctx is None:
            ctx = context_for(graph, topology)
        (dist, indptr, indices, weights, _,
         avg_all, _, fest) = self._setup(graph, topology, n, allowed, ctx)
        order = self._order
        selection = self._selection
        p = topology.num_nodes

        avail = np.ones(p, dtype=bool) if allowed is None else allowed.copy()
        unassigned = np.ones(n, dtype=bool)
        avail_count = int(avail.sum())
        assignment = np.full(n, -1, dtype=np.int64)
        # Float view of the availability mask, maintained in O(1) per cycle
        # (the reference path re-casts the bool mask every cycle instead).
        avail_f = avail.astype(np.float64)

        # f_sum feeds only the "gain" score; other selections never read it.
        # Masked runs sum over the allowed columns only — the same free-set
        # sums the reference kernel maintains.
        track_sum = selection == "gain"
        if not track_sum:
            f_sum = None
        elif allowed is None:
            f_sum = fest.sum(axis=1)
        else:
            f_sum = fest @ avail_f
        # Sentinel written into f_min on assignment: +inf sends the gain
        # score to -inf, -inf loses the max_cost argmax directly.
        f_min_poison = -np.inf if selection == "max_cost" else np.inf
        if selection == "volume":
            vol_score = graph.comm_volumes().astype(np.float64)

        reserve = min(self._RESERVE, n)
        ar = np.arange(n)            # shared index scratch

        # Initial reserve via `reserve` argmin-extraction passes: pass k
        # yields every row's k-th smallest (value, id) entry — the head of
        # the reference's stable initial sort, in O(reserve * n^2) instead
        # of O(n^2 log n). Extracted entries are poisoned in fest itself
        # (saving an n^2 working copy) and restored from res_vals after;
        # within a row the extracted columns are distinct, so the
        # scatter-back is an exact inverse.
        res_ids = np.empty((n, reserve), dtype=np.int64)
        res_vals = np.empty((n, reserve), dtype=np.float64)
        if allowed is None:
            for k in range(reserve):
                am = fest.argmin(axis=1)
                res_ids[:, k] = am
                res_vals[:, k] = fest[ar, am]
                fest[ar, am] = np.inf
            fest[ar[:, None], res_ids] = res_vals
        else:
            # Masked: extract from a copied allowed-column sub-matrix so the
            # disallowed columns (which the reference keeps out via its huge
            # penalty) can never win an argmin. allowed_ids is ascending, so
            # the sub-matrix argmin tie-breaks toward the lowest allowed id —
            # the same (value, id) order the reference's stable sort uses.
            allowed_ids0 = np.flatnonzero(avail)
            work = fest[:, allowed_ids0]  # fancy index: already a copy
            for k in range(reserve):
                am = work.argmin(axis=1)
                res_ids[:, k] = allowed_ids0[am]
                res_vals[:, k] = work[ar, am]
                work[ar, am] = np.inf
        res_pos = np.zeros(n, dtype=np.int64)
        f_min = res_vals[:, 0].copy()
        f_argmin = res_ids[:, 0].copy()

        # Lazy-reserve bookkeeping: the cycle at which the reference would
        # last have rebuilt each row (-1 = the initial build, for which
        # res_* above holds the actual candidate list) and the processors in
        # consumption order — together they recover, for any row, the free
        # set the reference's reserve was sorted over.
        touch_epoch = np.full(n, -1, dtype=np.int64)
        consumed_order = np.empty(n, dtype=np.int64)

        cols = np.arange(reserve)
        dirty_mask = np.zeros(n, dtype=bool)
        # np.flatnonzero(avail), kept incrementally: consumed ids are shifted
        # out of an ascending buffer in place (ascending order is load-bearing
        # — it is what makes "first minimum position" mean "lowest id").
        free_buf = np.flatnonzero(avail)
        nfree = avail_count
        free_ids = free_buf[:nfree]
        # Second-order rows subtract the same static baseline every cycle;
        # the whole (p, p) difference table is hoisted not just out of the
        # loop but into the shared topology cache. The masked baseline is the
        # allowed-set average, a per-fault-pattern table built inline — the
        # same elementwise dist[pk] - avg_all rows the reference computes.
        if order is EstimatorOrder.SECOND:
            if allowed is None:
                dma = ctx.centered_distance_matrix(np.float64)
            else:
                dma = dist - avg_all
        # Score buffer in float64 — the reference's `f_sum / count`
        # divides in float64, and matching its rounding is what keeps
        # near-tie argmax decisions identical.
        sbuf = np.empty(n, dtype=np.float64)

        cycles = reserve_hits = reserve_exhaustions = 0
        rows_rebuilt = neighbor_updates = 0
        for cycle in range(n):
            if selection == "gain":
                np.divide(f_sum, avail_count, out=sbuf)
                sbuf -= f_min
                tk = int(sbuf.argmax())
            elif selection == "max_cost":
                tk = int(f_min.argmax())
            else:  # "volume"
                tk = int(vol_score.argmax())
            pk = int(f_argmin[tk])
            assignment[tk] = pk
            unassigned[tk] = False
            avail[pk] = False
            avail_f[pk] = 0
            avail_count -= 1
            f_argmin[tk] = -1
            f_min[tk] = f_min_poison
            if selection == "volume":
                vol_score[tk] = -np.inf
            if prof is not None:
                cycles += 1
            if avail_count == 0:
                break

            # --- processor pk leaves the free set --------------------------
            if track_sum:
                f_sum -= fest[:, pk]
            consumed_order[cycle] = pk
            pos_pk = int(np.searchsorted(free_buf[:nfree], pk))
            free_buf[pos_pk:nfree - 1] = free_buf[pos_pk + 1:nfree]
            nfree -= 1
            free_ids = free_buf[:nfree]
            rescan: list[int] = []
            stale = np.flatnonzero(f_argmin == pk)
            if stale.size:
                epochs = touch_epoch[stale]
                vmask = epochs == -1
                sv = stale[vmask]
                if sv.size:
                    # Rows never dirtied still hold their initial candidate
                    # list: first still-free cached candidate after the
                    # current position, all rows at once (argmax = first
                    # True). This is the common case in the early cycles of
                    # symmetric instances, where hundreds of rows share the
                    # consumed argmin.
                    ok = avail[res_ids[sv]]
                    ok &= cols > res_pos[sv, None]
                    first = ok.argmax(axis=1)
                    found = ok[ar[: sv.size], first]
                    hit = sv[found]
                    if hit.size:
                        pos = first[found]
                        res_pos[hit] = pos
                        f_min[hit] = res_vals[hit, pos]
                        f_argmin[hit] = res_ids[hit, pos]
                    rescan.extend(int(t) for t in sv[~found])
                for t in stale[~vmask]:
                    # Dirtied rows replay the walk the reference would have
                    # made over the reserve it rebuilt at the row's epoch —
                    # without materializing it. Whatever free candidate that
                    # walk reaches is *preceded* in the epoch's (value, id)
                    # order only by consumed entries (a free predecessor
                    # would itself be a smaller free value), so the find is
                    # exactly the row's current free argmin, sitting at
                    # epoch-rank r = the number of since-consumed candidates
                    # ordered ahead of it. The walk succeeds iff r fits
                    # inside the reserve window; otherwise the reference
                    # would have exhausted the reserve and rescanned.
                    t = int(t)
                    rowt = fest[t]
                    fv = rowt[free_ids]
                    j = int(fv.argmin())
                    vmin = fv[j]
                    cseq = consumed_order[touch_epoch[t] + 1: cycle + 1]
                    cv = rowt[cseq]
                    r = int(np.count_nonzero(cv < vmin))
                    if r < reserve:
                        # Ties with vmin can only push the rank further out;
                        # resolve them by id only when one actually exists.
                        eq = cv == vmin
                        if eq.any():
                            r += int(np.count_nonzero(cseq[eq] < free_ids[j]))
                    if r < reserve:
                        f_min[t] = vmin
                        f_argmin[t] = free_ids[j]
                    else:
                        rescan.append(t)
                if prof is not None:
                    reserve_exhaustions += len(rescan)
                    reserve_hits += int(stale.size) - len(rescan)

            # --- neighbor rows: one broadcasted update for all of them -----
            # The rows written here are exactly the rows repaired below, so
            # the fancy-indexed `fest[touched] += ...` (gather, add, scatter)
            # is opened up: gather once into rows_full, update in place,
            # scatter back, and hand the already-gathered rows to the repair
            # step. Same elementwise operations, one O(k*p) gather fewer.
            lo, hi = indptr[tk], indptr[tk + 1]
            nbrs = indices[lo:hi]
            sel = unassigned[nbrs]
            touched = nbrs[sel]
            rows_full = None
            if touched.size:
                ws = weights[lo:hi][sel]
                if order is EstimatorOrder.FIRST:
                    upd = ws[:, None] * dist[pk]
                else:
                    upd = ws[:, None] * dma[pk]
                rows_full = fest[touched]
                rows_full += upd
                fest[touched] = rows_full
            if prof is not None:
                neighbor_updates += int(touched.size)

            # --- repair row reductions (mask union instead of np.unique) ---
            if rescan or touched.size:
                if not rescan:
                    # Common case: CSR neighbor ids are already unique, no
                    # union to take.
                    dirty = touched
                else:
                    dirty_mask[rescan] = True
                    dirty_mask[touched] = True
                    dirty = np.flatnonzero(dirty_mask)
                    dirty_mask[dirty] = False
                    rows_full = None
                touch_epoch[dirty] = cycle
                k = dirty.size
                if rows_full is None:
                    rows_full = fest[dirty]
                # Head of the reference's sorted reserve, without the sort:
                # lowest-id minimum over the free columns.
                sub = rows_full[:, free_ids]
                posm = sub.argmin(axis=1)
                f_min[dirty] = sub[ar[:k], posm]
                f_argmin[dirty] = free_ids[posm]
                if track_sum:
                    f_sum[dirty] = rows_full @ avail_f
                if prof is not None:
                    rows_rebuilt += int(k)

        if prof is not None:
            prof.count("topolb.cycles", cycles)
            prof.count("topolb.reserve_hits", reserve_hits)
            prof.count("topolb.reserve_exhaustions", reserve_exhaustions)
            prof.count("topolb.rows_rebuilt", rows_rebuilt)
            prof.count("topolb.neighbor_updates", neighbor_updates)
        return assignment

    def _run_third_order(
        self,
        graph: TaskGraph,
        topology: Topology,
        n: int,
        prof: obs.Profiler | None = None,
        allowed: np.ndarray | None = None,
        ctx: MappingContext | None = None,
    ) -> np.ndarray:
        """Third-order cycle body — bit-identical assignments to the reference.

        Third order recentres every unplaced row on the free-processor
        average each cycle, so every unplaced row is rebuilt every cycle and
        the reserve machinery of :meth:`_run_vectorized` is never read:

        * the initial ``f_min``/``f_argmin`` is one argmin over the free
          columns — the head of the reference's reserve;
        * a row whose argmin is consumed was rebuilt one cycle earlier, when
          at least two processors were still free, so the reference's walk
          always finds its next candidate one slot on: every stale row is a
          reserve hit, and the row is overwritten by this cycle's rebuild
          anyway.

        The recentre-and-argmin pass runs compiled
        (:mod:`repro.mapping._native`) over the ascending free columns only.
        Consumed columns may go stale because they are read again only
        through a zero weight in the free-set row sums
        ``fest[rows] @ avail_f`` — which stay exactly that gather plus
        matrix-vector product: BLAS rounding depends on the operand shape,
        so ``(fest @ avail_f)[rows]`` would differ in the last bit.
        """
        (dist, indptr, indices, weights, unplaced_comm,
         _, avg_free, fest) = self._setup(graph, topology, n, allowed, ctx)
        selection = self._selection
        p = topology.num_nodes
        native = _native.load()

        avail = np.ones(p, dtype=bool) if allowed is None else allowed
        unassigned = np.ones(n, dtype=bool)
        avail_count = int(avail.sum())
        assignment = np.full(n, -1, dtype=np.int64)
        avail_f = avail.astype(np.float64)
        # Ascending free ids, consumed ids shifted out in place (ascending
        # order is what makes "first minimum" mean "lowest id").
        free_buf = np.flatnonzero(avail)
        nfree = avail_count
        free_ids = free_buf[:nfree]

        sub = fest if allowed is None else fest[:, free_ids]
        posm = sub.argmin(axis=1)
        f_min = sub[np.arange(n), posm]
        f_argmin = free_ids[posm]
        del sub
        track_sum = selection == "gain"
        if track_sum:
            f_sum = fest.sum(axis=1) if allowed is None else fest @ avail_f
        f_min_poison = -np.inf if selection == "max_cost" else np.inf
        if selection == "volume":
            vol_score = graph.comm_volumes().astype(np.float64)
        sbuf = np.empty(n, dtype=np.float64)

        cycles = reserve_hits = rows_rebuilt = neighbor_updates = 0
        for _cycle in range(n):
            if selection == "gain":
                np.divide(f_sum, avail_count, out=sbuf)
                sbuf -= f_min
                tk = int(sbuf.argmax())
            elif selection == "max_cost":
                tk = int(f_min.argmax())
            else:  # "volume"
                tk = int(vol_score.argmax())
            pk = int(f_argmin[tk])
            assignment[tk] = pk
            unassigned[tk] = False
            avail_f[pk] = 0
            avail_count -= 1
            f_argmin[tk] = -1
            f_min[tk] = f_min_poison
            if selection == "volume":
                vol_score[tk] = -np.inf
            if prof is not None:
                cycles += 1
            if avail_count == 0:
                break

            pos_pk = int(np.searchsorted(free_ids, pk))
            free_buf[pos_pk:nfree - 1] = free_buf[pos_pk + 1:nfree]
            nfree -= 1
            free_ids = free_buf[:nfree]
            if prof is not None:
                reserve_hits += int(np.count_nonzero(f_argmin == pk))

            # --- neighbor rows: the (j, tk) edge cost becomes exact --------
            lo, hi = indptr[tk], indptr[tk + 1]
            nbrs = indices[lo:hi]
            sel = unassigned[nbrs]
            touched = nbrs[sel]
            if touched.size:
                ws = weights[lo:hi][sel]
                fest[touched] += ws[:, None] * (dist[pk] - avg_free)
                unplaced_comm[touched] -= ws
            if prof is not None:
                neighbor_updates += int(touched.size)

            # --- recentre every unplaced row on the free average ----------
            new_avg = (avg_free * (avail_count + 1) - dist[pk]) / avail_count
            delta = new_avg - avg_free
            avg_free = new_avg
            rows = np.flatnonzero(unassigned)
            native.topolb3_recentre(fest, rows, unplaced_comm, delta,
                                    free_ids, f_min, f_argmin)
            if track_sum:
                f_sum[rows] = fest[rows] @ avail_f
            if prof is not None:
                rows_rebuilt += rows.size

        if prof is not None:
            prof.count("topolb.cycles", cycles)
            prof.count("topolb.reserve_hits", reserve_hits)
            prof.count("topolb.reserve_exhaustions", 0)
            prof.count("topolb.rows_rebuilt", rows_rebuilt)
            prof.count("topolb.neighbor_updates", neighbor_updates)
        return assignment
