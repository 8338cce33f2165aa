"""TopoCentLB — the simpler, faster comparison strategy (Section 4.5).

Cycle 1 places the most-communicating task; every later cycle selects the
unplaced task with the maximum total communication volume to the *already
placed* set and puts it on the free processor minimizing its first-order
cost — the hop-bytes to its placed neighbors. This is Baba et al.'s
``(P3, P4)`` heuristic pair and uses the first-order estimation function;
unlike TopoLB it ranks tasks by the cost itself rather than by criticality.
Total running time ``O(p |Et|)``.

The selection is a first-maximum scan over one key array, ``O(n)`` a cycle,
where the paper has an ``O(log p)`` max-heap: a cycle already costs
``O(p)``, and the scan picks what the heap pops — the largest key, ties to
the lowest id (see docs/ALGORITHMS.md). ``"vectorized"`` (the default) runs
the cycle loop compiled; ``"reference"`` is :meth:`TopoCentLB._run`, its
bit-identical specification and its body without a C compiler.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.mapping import _native
from repro.mapping.base import Mapper, Mapping
from repro.mapping.context import MappingContext, context_for
from repro.mapping.kernels import resolve_kernel
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology
from repro.topology.grid import AxisDistances

__all__ = ["TopoCentLB", "seed_keys"]


def seed_keys(graph: TaskGraph) -> np.ndarray:
    """The selection keys before any placement: ``eps`` times each task's
    total volume, so the first maximum is the most-communicating task (the
    paper's cycle-1 rule) and placed-volume ties break toward chattier
    tasks. ``eps * volume`` stays below half the smallest *positive* edge
    weight, so it never outvotes a real key difference of one whole edge; a
    zero-weight edge moves no key, so it must not make ``eps`` zero."""
    volumes = graph.comm_volumes()
    w = graph.edge_arrays()[2]
    positive = w[w > 0]
    if not positive.size:
        return np.zeros(graph.num_tasks)
    eps = 0.5 * float(positive.min()) / (1.0 + float(volumes.max()))
    return eps * volumes


def _most_central(dist, free_ids: np.ndarray) -> int:
    """The free processor of least mean distance to the free set: where a
    task with no placed neighbor (the first, or an isolated component's)
    goes, so that growth has room. ``dist`` is a distance table or a grid's
    :class:`~repro.topology.grid.AxisDistances`, whose exact integer row
    sums over the free set divided by its size are the table's row means
    bit for bit."""
    if isinstance(dist, AxisDistances):
        centrality = dist.row_sums(free_ids) / len(free_ids)
    else:
        centrality = dist[np.ix_(free_ids, free_ids)].mean(axis=1)
    return int(free_ids[np.argmin(centrality)])


class TopoCentLB(Mapper):
    """Greedy topology-aware mapper (comparison baseline). ``kernel`` as
    for :class:`~repro.mapping.topolb.TopoLB`."""

    strategy_name = "TopoCentLB"
    places_underfull = True

    def __init__(self, kernel: str | None = None):
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
        """Map ``n <= p`` tasks of ``graph`` onto ``topology``, one per
        processor. ``ctx`` supplies shared per-(graph, topology) tables."""
        n = self._check_sizes(graph, topology)
        if ctx is None:
            ctx = context_for(graph, topology)
        if (self._kernel == "reference"
                or _native.kernels_or_fallback() is None):
            run = self._run
        else:
            run = self._run_compiled
        prof = obs.active()
        if prof is None:
            assignment, _ = run(graph, n, ctx)
        else:
            with prof.timer("topocentlb.map"):
                assignment, counters = run(graph, n, ctx)
            for name, value in counters.items():
                prof.count(name, value)
        return Mapping(graph, topology, assignment)

    @staticmethod
    def _run(graph: TaskGraph, n: int,
             ctx: MappingContext) -> tuple[np.ndarray, dict[str, int]]:
        """The scalar cycle body: the assignment and the counters."""
        # Exact cast either way: hop distances are small integers (or already
        # float64 on weighted machines), so the float64 view from the shared
        # cache is bitwise equal to astype()ing the default matrix.
        dist = ctx.distance_matrix(np.float64)
        indptr, indices, weights = ctx.csr_arrays()

        avail = np.ones(dist.shape[0], dtype=bool)  # free processors
        assignment = np.full(n, -1, dtype=np.int64)
        keys = seed_keys(graph)  # volume to the placed set; -inf once placed

        anchor = -1  # processor of the first-placed task; compactness anchor
        key_updates = seed_placements = 0
        for _cycle in range(n):
            tk = int(np.argmax(keys))

            # First-order cost of tk on every free processor.
            lo, hi = indptr[tk], indptr[tk + 1]
            nbrs = indices[lo:hi]
            wts = weights[lo:hi]
            placed_mask = assignment[nbrs] >= 0
            free_ids = np.flatnonzero(avail)
            if placed_mask.any():
                # An F-ordered (k, m) gather; the compiled loop lays out its
                # operand the same way, so both run one BLAS kernel.
                rows = dist[assignment[nbrs[placed_mask]]][:, free_ids]
                cost = wts[placed_mask] @ rows
                # The first-order cost frequently ties (several free
                # processors equidistant from the placed neighbors); break
                # ties toward the growth anchor so the placed region stays
                # compact instead of fraying — raggedness here compounds in
                # later cycles.
                ties = np.flatnonzero(cost <= cost.min())
                pk = int(free_ids[ties[np.argmin(dist[anchor][free_ids[ties]])]])
            else:
                pk = _most_central(dist, free_ids)
                if anchor < 0:
                    anchor = pk
                seed_placements += 1

            assignment[tk] = pk
            avail[pk] = False
            keys[tk] = -np.inf
            # CSR neighbor ids are unique, so the fancy += adds once each.
            unplaced = ~placed_mask
            keys[nbrs[unplaced]] += wts[unplaced]
            key_updates += int(np.count_nonzero(unplaced))

        return assignment, {"topocentlb.cycles": n,
                            "topocentlb.key_updates": key_updates,
                            "topocentlb.seed_placements": seed_placements}

    @staticmethod
    def _run_compiled(graph: TaskGraph, n: int,
                      ctx: MappingContext) -> tuple[np.ndarray, dict[str, int]]:
        """The compiled cycle loop, bit-identical to :meth:`_run`, counters
        included. C selects, gathers, places and bumps the keys; at its
        pauses Python computes the two expressions whose rounding C does not
        reproduce: each cycle's cost row ``w @ G``, a BLAS product whose
        kernel depends on the operands' layout, and a seed's centrality. C
        gathers ``G`` from the machine's per-axis tables on a grid machine,
        else from its own table (int32 on integer machines), as doubles, so
        BLAS sees :meth:`_run`'s operands; the centrality's row means of
        integers are exact in any order."""
        dist = ctx.kernel_distances()
        cycles = _native.load().topocent_cycles(dist, *ctx.csr_arrays(),
                                                seed_keys(graph))
        cost = cycles.cost
        while (pause := cycles()) is not None:
            w, g = pause
            if w is None:
                cycles.seed(_most_central(dist, g))
            else:
                cost[:g.shape[1]] = w @ g
        return cycles.assignment, cycles.counters()
