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

Two kernels implement the cycle body (see :mod:`repro.mapping.kernels`).
``"reference"`` keeps the original scalar loops, the executable
specification. ``"vectorized"`` (the default) runs the whole cycle loop
compiled (:mod:`repro.mapping._native`), pausing only for the "gain" rule's
BLAS row sums; third order's loop drops the reserve it never reads and
keeps its unplaced rows compacted at the top of the table, so those sums
need no gather. Without a C compiler it runs the reference loop instead.
All paths produce bit-identical assignments and counters — the equivalence
suite enforces it.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.exceptions import MappingError
from repro.mapping import _native
from repro.mapping.base import Mapper, Mapping
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
        ``"vectorized"`` (the compiled cycle loop, the default; the
        reference loop without a C compiler), ``"reference"`` (the original
        scalar loops), or ``None`` for the default
        (:data:`repro.mapping.kernels.DEFAULT_KERNEL`).
    """

    strategy_name = "TopoLB"
    places_underfull = True

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
        *,
        ctx: MappingContext | None = None,
    ) -> Mapping:
        """Map ``graph`` onto ``topology``, one task per processor.

        ``n <= p`` tasks are placed injectively; ``n > p`` raises
        :class:`MappingError`. ``ctx`` supplies shared per-(graph, topology)
        tables; ``None`` uses the process-wide shared context.
        """
        n = self._check_sizes(graph, topology)
        if ctx is None:
            ctx = context_for(graph, topology)
        if (self._kernel == "reference"
                or _native.kernels_or_fallback() is None):
            run = self._run_reference
        else:
            run = self._run_compiled
        prof = obs.active()
        if prof is None:
            assignment = run(graph, topology, n, ctx=ctx)
        else:
            with prof.timer("topolb.map"):
                assignment = run(graph, topology, n, prof, ctx=ctx)
        return Mapping(graph, topology, assignment)

    # ------------------------------------------------------------------ core
    #: Cached candidate minima per row. When a row's best free processor is
    #: consumed, the next cached candidate takes over in O(1); a full O(p)
    #: row rescan happens only when the whole reserve has been consumed —
    #: this is what keeps the symmetric-instance worst case (hundreds of rows
    #: sharing one argmin) from degrading every cycle to O(n p).
    _RESERVE = 8

    def _setup(self, graph: TaskGraph, topology: Topology, n: int,
               ctx: MappingContext | None = None, compiled: bool = False):
        """Shared kernel state: the distances (the compiled loop's
        :meth:`MappingContext.kernel_distances`, the reference's float64
        table), the fest table and the selection vectors."""
        if ctx is None:
            ctx = context_for(graph, topology)
        dist = (ctx.kernel_distances() if compiled
                else ctx.distance_matrix(np.float64))
        indptr, indices, weights = ctx.csr_arrays()

        order = self._order
        # Bytes from each task to its not-yet-placed neighbors.
        # comm_volumes() returns a fresh array, which the third-order path
        # may mutate.
        unplaced_comm = graph.comm_volumes()

        # avg_all is never mutated, so aliasing the shared read-only vector
        # is safe (avg_free, which the third-order path does mutate, is a
        # real copy).
        avg_all = ctx.average_distance_vector()
        avg_free = avg_all.copy()  # equal to avg_all until third order shifts it

        # fest table: rows = tasks, columns = processors (n <= p).
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
        ctx: MappingContext | None = None,
    ) -> np.ndarray:
        """The original scalar cycle body — the executable specification the
        compiled loops are tested against, and their body wherever the
        compiled kernels are unavailable."""
        (dist, indptr, indices, weights, unplaced_comm,
         avg_all, avg_free, fest) = self._setup(graph, topology, n, ctx)
        order = self._order
        p = topology.num_nodes

        avail = np.ones(p, dtype=bool)
        unassigned = np.ones(n, dtype=bool)
        avail_count = int(avail.sum())
        assignment = np.full(n, -1, dtype=np.int64)
        # Additive penalty pushing consumed processors out of row minima
        # (a fraction of the float64 range, so sums never overflow).
        huge = np.finfo(np.float64).max / 16
        penalty = np.zeros(p, dtype=np.float64)

        # Row sums over the free columns, kept incrementally below.
        f_sum = fest.sum(axis=1)
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

    def _run_compiled(
        self,
        graph: TaskGraph,
        topology: Topology,
        n: int,
        prof: obs.Profiler | None = None,
        ctx: MappingContext | None = None,
    ) -> np.ndarray:
        """The compiled cycle loop — bit-identical to the reference,
        counters included.

        The whole loop runs in C (``refine_kernel.c``): ``topolb_cycles``
        for first and second order, the reference's plain algorithm with a
        reserve that holds only free candidates, so a walk past its filled
        entries is the reference's walk into penalized padding;
        ``topolb3_loop`` for third order, which rebuilds every unplaced
        row each cycle and so keeps no reserve (see its header comment).
        Python keeps the one expression whose rounding C cannot reproduce:
        the "gain" rule's free-set row sums ``fest[rows] @ avail_f``, a BLAS
        product whose rounding depends on the batch shape. The loop pauses
        after each "gain" cycle that changed rows and hands them back for
        exactly that product: ascending dirty ids for orders 1–2, and for
        third order ``slice(0, m)``, the unplaced rows it keeps compacted
        in ``fest[:m]`` in ascending task order — the reference's
        ``fest[rows]`` without the gather. Third order passes over every
        column of those rows; a consumed processor's column holds the
        reference's penalty ``huge``, which is finite, so ``0 * huge`` adds
        an exact zero to the product. C reads the machine's per-axis
        tables on a grid machine, else its own table (int32 on integer
        machines), widening each distance to the double the reference's
        float64 table holds.
        """
        (dist, indptr, indices, weights, unplaced_comm,
         _, avg_free, fest) = self._setup(graph, topology, n, ctx, True)
        avail_f = np.ones(topology.num_nodes)
        if self._selection == "gain":
            score = fest.sum(axis=1)
        else:  # "max_cost" never reads it
            score = graph.comm_volumes()
        cycles = _native.load().topolb_cycles(
            fest, dist, avg_free, indptr, indices, weights, int(self._order),
            self._selection, score, avail_f, min(self._RESERVE, n),
            unplaced_comm)
        while (rows := cycles()) is not None:
            score[rows] = fest[rows] @ avail_f
        if prof is not None:
            for name, value in cycles.counters().items():
                prof.count(name, value)
        return cycles.assignment
