"""RefineTopoLB — pairwise-swap hop-bytes refiner (Section 5.2.3).

The paper applies this after an initial mapper: "The refiner swaps tasks
between processors to see if hop-bytes are reduced or not. It swaps only when
hop-bytes get reduced." On LeanMD it shaves a further ~12% off TopoLB's
hop-bytes.

Implementation: maintain the first-order cost table ``C[t, q] = sum over
neighbors j of c_tj * d(q, P(j))``. For tasks ``a``, ``b`` on processors
``pa``, ``pb`` the swap delta is::

    delta(a, b) = C[a, pb] + C[b, pa] - C[a, pa] - C[b, pb]
                  + 2 * c_ab * d(pa, pb)          # a<->b edge is unaffected

(the correction term undoes the double-counted improvement the naive sum
claims for the a-b edge itself, whose endpoints merely trade places). A
sweep evaluates, for each task ``a``, the delta against *every* other task
and greedily applies the best strictly-negative swap; sweeps repeat until a
full pass makes no swap or ``max_sweeps`` is hit.

Two kernels implement the sweep (see :mod:`repro.mapping.kernels`). The
``"reference"`` kernel evaluates one task row at a time, exactly as above —
the oracle the production kernel is pinned against.

The ``"vectorized"`` kernel (default) is the production kernel. It runs the
compiled *incremental sweep* (``refine_kernel.c``, loaded by
:mod:`repro.mapping._native`): each task's best swap partner
``(argmin, min)`` is cached across sweeps, and after an accepted swap of
``(a, b)`` only what actually changed is repaired. The dirty set is
``{a, b} ∪ N(a) ∪ N(b)`` — exactly the tasks whose ``assign``/``cost``-row
entries :meth:`RefineTopoLB._apply_swap` mutated — so a cached row outside
the dirty set changed *only at the dirty columns*; those entries are
recomputed in the reference term order and folded in under argmin's
lowest-index tie-breaking, while rows inside the dirty set, and rows whose
cached argmin fell in it, are recomputed in full. A converged sweep is n
cache reads.

The compiled kernel keeps its cost table in int32 when the inputs allow
it, at half the bytes of float64: every edge weight an integer, the
machine's distances integers (an int32 table or per-axis tables), and
``B = max_t sum_j w_tj * max(dmax, 1)`` at most ``2**31 - 1``, with
``dmax`` read from those distances. Then every value the float64 table
would hold (the initial table, each half-applied swap patch) is an exact
integer in ``[0, B]``, and the kernel widens each entry to double on load,
so the sweeps are bit-identical. Fractional weights, a float64 machine or
a larger ``B`` keep the float64 table; the reference sweep always does.

Without a C compiler (or under ``REPRO_NO_NATIVE``) the production kernel
runs the reference sweep instead.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.exceptions import MappingError
from repro.mapping import _native
from repro.mapping.base import Mapper, Mapping
from repro.mapping.context import MappingContext, context_for
from repro.mapping.kernels import resolve_kernel
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology
from repro.utils.rng import as_rng

__all__ = ["RefineTopoLB"]


class RefineTopoLB(Mapper):
    """Hop-bytes-decreasing pairwise-swap refiner.

    Parameters
    ----------
    base:
        Optional mapper producing the initial mapping when :meth:`map` is
        called directly (the paper runs TopoLB first). :meth:`refine` can
        also polish any existing injective :class:`Mapping` of ``n <= p``
        tasks.
    max_sweeps:
        Upper bound on full passes over the tasks.
    seed:
        Sweep order is randomized (a fixed order can get stuck in the same
        local minimum every sweep); the seed makes runs reproducible.
    kernel:
        ``"vectorized"`` (the compiled incremental sweep, the default; the
        reference sweep without a C compiler), ``"reference"``
        (row-at-a-time), or ``None`` for the default.
    """

    strategy_name = "RefineTopoLB"
    places_underfull = True

    def __init__(self, base: Mapper | None = None, max_sweeps: int = 10,
                 seed: int | np.random.Generator | None = 0,
                 kernel: str | None = None):
        if max_sweeps < 1:
            raise MappingError(f"max_sweeps must be >= 1, got {max_sweeps}")
        self._base = base
        self._max_sweeps = int(max_sweeps)
        self._seed = seed
        self._kernel = resolve_kernel(kernel)

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
        if self._base is None:
            raise MappingError(
                "RefineTopoLB.map needs a base mapper; either construct with "
                "base=TopoLB() or call .refine(existing_mapping)"
            )
        return self.refine(self._base.map(graph, topology), ctx=ctx)

    def refine(
        self, mapping: Mapping, *, ctx: MappingContext | None = None,
    ) -> Mapping:
        """Return a refined copy of ``mapping`` (never worse in hop-bytes).

        The refiner only swaps the processors of two tasks, so the set of
        occupied processors never changes. ``ctx`` supplies shared
        per-(graph, topology) tables.
        """
        if (self._kernel == "vectorized"
                and _native.kernels_or_fallback() is not None):
            run = self._refine_incremental_native
        else:
            run = self._refine_reference
        prof = obs.active()
        if prof is None:
            return run(mapping, ctx=ctx)
        with prof.timer("refine.refine"):
            return run(mapping, prof, ctx=ctx)

    def _setup(self, mapping: Mapping, ctx: MappingContext | None = None,
               native: _native.NativeKernels | None = None):
        """Shared kernel state: distances, CSR arrays, cost table.

        The compiled kernels read the machine's distances as
        :meth:`MappingContext.kernel_distances` hands them over (per-axis
        tables on a grid machine, else its own table, widened on load); the
        reference keeps its float64 table."""
        graph, topology = mapping.graph, mapping.topology
        if ctx is None:
            ctx = context_for(graph, topology)
        n = self._check_sizes(graph, topology)
        if not mapping.is_injective():
            raise MappingError(
                "RefineTopoLB requires an injective mapping (one task per "
                "processor; bijective when n == p)"
            )
        rng = as_rng(self._seed)

        indptr, indices, weights = ctx.csr_arrays()
        assign = mapping.assignment.copy()

        # C[t, q] = first-order cost of task t if it sat on processor q:
        # the adjacency with each neighbor column relabelled to its processor,
        # times the distance matrix. SciPy's csr_matvecs accumulates the same
        # rows in the same order as ``adjacency @ dist[assign]`` without the
        # (n, p) gather, and the compiled table repeats that order, in int32
        # where every entry is an exact integer that fits (module docstring).
        if native is None:
            import scipy.sparse as sp

            dist = ctx.distance_matrix(np.float64)
            placed = sp.csr_matrix(
                (weights, assign[indices], indptr), shape=(n, dist.shape[0])
            )
            cost = np.asarray(placed @ dist)  # (n, p)
        else:
            dist = ctx.kernel_distances()
            cost = native.refine_cost_table(indptr, indices, weights, assign,
                                            dist)
        return n, rng, dist, indptr, indices, weights, assign, cost

    @staticmethod
    def _record_totals(prof: obs.Profiler | None, n: int, sweeps: int,
                       evaluations: int, accepted: int) -> None:
        """Whole-refine counter totals. Every kernel visits the same tasks
        and accepts the same swaps (bit-identity), so the totals are
        kernel-independent: each visit weighs a task against its ``n - 1``
        candidate partners regardless of how much arithmetic the kernel
        actually spent producing the row."""
        if prof is None:
            return
        prof.count("refine.sweeps", sweeps)
        prof.count("refine.swaps_accepted", accepted)
        prof.count("refine.swaps_rejected", evaluations - accepted)
        prof.count("refine.pairs_evaluated", evaluations * (n - 1))

    def _refine_reference(
        self, mapping: Mapping, prof: obs.Profiler | None = None,
        ctx: MappingContext | None = None,
    ) -> Mapping:
        """Row-at-a-time sweep — the executable specification of the
        production kernel, and its body wherever the compiled sweep is
        unavailable; the equivalence suite pins the two to identical
        outputs."""
        n, rng, dist, indptr, indices, weights, assign, cost = self._setup(
            mapping, ctx
        )

        ids = np.arange(n)
        sweeps = evaluations = accepted = 0
        for _sweep in range(self._max_sweeps):
            swapped = False
            if prof is not None:
                sweeps += 1
            for a in rng.permutation(n):
                a = int(a)
                delta = self._swap_deltas(a, ids, assign, cost, dist, indptr,
                                          indices, weights)
                b = int(np.argmin(delta))
                improved = delta[b] < -1e-9
                if prof is not None:
                    evaluations += 1
                    if improved:
                        accepted += 1
                if improved:
                    self._apply_swap(a, b, assign, cost, dist, indptr, indices, weights)
                    swapped = True
            if not swapped:
                break

        self._record_totals(prof, n, sweeps, evaluations, accepted)
        return mapping.with_assignment(assign)

    @staticmethod
    def _swap_deltas(a: int, ids: np.ndarray, assign: np.ndarray,
                     cost: np.ndarray, dist: np.ndarray, indptr: np.ndarray,
                     indices: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Task ``a``'s row of swap deltas: the hop-bytes change of swapping
        it with every task ``b`` (``ids`` is ``arange(n)``), 0 at ``a``."""
        pa = assign[a]
        delta = (
            cost[a, assign]            # C[a, pb] for every b
            + cost[ids, pa]            # C[b, pa]
            - cost[a, pa]
            - cost[ids, assign]        # C[b, pb]
        )
        lo, hi = indptr[a], indptr[a + 1]
        nbrs, wts = indices[lo:hi], weights[lo:hi]
        delta[nbrs] += 2.0 * wts * dist[pa, assign[nbrs]]
        delta[a] = 0.0
        return delta

    def _refine_incremental_native(
        self, mapping: Mapping, prof: obs.Profiler | None = None,
        ctx: MappingContext | None = None,
    ) -> Mapping:
        """Compiled incremental sweep. One C call runs one full sweep; the
        best-swap caches persist across calls and the C side repairs them
        eagerly after each accepted swap (dirty-set argument in the module
        docstring, reference term order — see refine_kernel.c). The sweep
        loop, RNG permutation draws, and obs accounting stay in Python so
        every path shares its observable structure.

        The compiled per-swap bookkeeping exists because it is scalar work
        that NumPy call overhead dominates at paper scales (n ~ 512)."""
        native = _native.load()
        n, rng, dist, indptr, indices, weights, assign, cost = self._setup(
            mapping, ctx, native
        )
        sweeper = native.refine_sweeper(cost, dist, assign, indptr, indices,
                                        weights)
        stats = sweeper.stats  # visits, accepted, computed, folded

        sweeps = 0
        for _sweep in range(self._max_sweeps):
            swapped = sweeper.sweep(rng.permutation(n))
            sweeps += 1
            if not swapped:
                break

        self._record_totals(prof, n, sweeps, int(stats[0]), int(stats[1]))
        if prof is not None:
            prof.count("refine.rows_computed", int(stats[2]))
            prof.count("refine.rows_folded", int(stats[3]))
        return mapping.with_assignment(assign)

    @staticmethod
    def _apply_swap(a: int, b: int, assign: np.ndarray, cost: np.ndarray,
                    dist: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
                    weights: np.ndarray) -> None:
        """Swap the processors of ``a`` and ``b`` and patch the cost table.

        Only the rows of the neighbors of ``a`` and ``b`` reference the moved
        processors, so the patch costs ``O(p * (deg a + deg b))``.
        """
        pa, pb = int(assign[a]), int(assign[b])
        if a == b or pa == pb:
            # Degenerate "swap": nothing moves, the delta is exactly zero,
            # and patching the cost table would only accumulate rounding.
            return
        assign[a], assign[b] = pb, pa
        move = dist[pb] - dist[pa]  # how d(q, P(a)) changed, for every q
        for t, sign in ((a, 1.0), (b, -1.0)):
            lo, hi = indptr[t], indptr[t + 1]
            nbrs = indices[lo:hi]
            if nbrs.size:
                # One fanned-out row update per endpoint; neighbor ids are
                # unique within a CSR row, so the fancy-indexed += is exact.
                cost[nbrs] += (sign * weights[lo:hi])[:, None] * move
