"""TopoCentLB — the simpler, faster comparison strategy (Section 4.5).

Cycle 1 places the most-communicating task; every later cycle selects the
unplaced task with the maximum total communication volume to the *already
placed* set (an addressable max-heap gives the paper's ``O(log p)`` selection
and key bumps) and puts it on the free processor minimizing its first-order
cost — the hop-bytes to its placed neighbors. This is Baba et al.'s
``(P3, P4)`` heuristic pair and uses the first-order estimation function;
unlike TopoLB it ranks tasks by the cost itself rather than by criticality.
Total running time ``O(p |Et|)``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.mapping.base import Mapper, Mapping
from repro.mapping.context import MappingContext, context_for
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology
from repro.utils.priority_queue import AddressableMaxHeap

__all__ = ["TopoCentLB"]


class TopoCentLB(Mapper):
    """Heap-driven greedy topology-aware mapper (comparison baseline)."""

    strategy_name = "TopoCentLB"
    places_underfull = True

    def map(
        self,
        graph: TaskGraph,
        topology: Topology,
        *,
        ctx: MappingContext | None = None,
    ) -> Mapping:
        """Map ``n <= p`` tasks of ``graph`` onto ``topology``, one per
        processor. ``ctx`` supplies shared per-(graph, topology) tables."""
        if ctx is None:
            ctx = context_for(graph, topology)
        prof = obs.active()
        if prof is None:
            return self._run(graph, topology, ctx=ctx)
        with prof.timer("topocentlb.map"):
            return self._run(graph, topology, prof, ctx=ctx)

    def _run(
        self,
        graph: TaskGraph,
        topology: Topology,
        prof: obs.Profiler | None = None,
        ctx: MappingContext | None = None,
    ) -> Mapping:
        if ctx is None:
            ctx = context_for(graph, topology)
        n = self._check_sizes(graph, topology)
        p = topology.num_nodes
        # Exact cast either way: hop distances are small integers (or already
        # float64 on weighted machines), so the float64 view from the shared
        # cache is bitwise equal to astype()ing the default matrix.
        dist = ctx.distance_matrix(np.float64)
        indptr, indices, weights = ctx.csr_arrays()

        avail = np.ones(p, dtype=bool)  # free processors
        assignment = np.full(n, -1, dtype=np.int64)

        # Heap key: communication volume to the placed set. Seed keys with a
        # sub-resolution multiple of each task's total volume so (a) the very
        # first pop is the globally most-communicating task (paper's cycle 1
        # rule) without a special case and (b) placed-volume ties break toward
        # chattier tasks deterministically. The perturbation stays below the
        # smallest edge weight, so it can never outvote a real key difference
        # of one whole edge.
        volumes = graph.comm_volumes()
        if graph.num_edges:
            min_w = float(graph.edge_arrays()[2].min())
            tie_epsilon = 0.5 * min_w / (1.0 + float(volumes.max()))
        else:
            tie_epsilon = 0.0
        heap = AddressableMaxHeap((t, tie_epsilon * volumes[t]) for t in range(n))

        anchor = -1  # processor of the first-placed task; compactness anchor
        cycles = heap_updates = seed_placements = 0
        for _cycle in range(n):
            tk, _key = heap.pop()
            tk = int(tk)

            # First-order cost of tk on every free processor.
            lo, hi = indptr[tk], indptr[tk + 1]
            nbrs = indices[lo:hi]
            wts = weights[lo:hi]
            placed_mask = assignment[nbrs] >= 0
            free_ids = np.flatnonzero(avail)
            if placed_mask.any():
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
                # No placed neighbor yet (first task, or isolated component):
                # put it on the most central free processor so growth has room.
                centrality = dist[np.ix_(free_ids, free_ids)].mean(axis=1)
                pk = int(free_ids[np.argmin(centrality)])
                if anchor < 0:
                    anchor = pk

            assignment[tk] = pk
            avail[pk] = False
            if prof is not None:
                cycles += 1
                heap_updates += int(len(nbrs) - np.count_nonzero(placed_mask))
                if not placed_mask.any():
                    seed_placements += 1

            # Bump the placed-communication keys of tk's unplaced neighbors.
            for j, c in zip(nbrs, wts):
                j = int(j)
                if assignment[j] < 0:
                    heap.update(j, heap.key(j) + float(c))

        if prof is not None:
            prof.count("topocentlb.cycles", cycles)
            prof.count("topocentlb.heap_updates", heap_updates)
            prof.count("topocentlb.seed_placements", seed_placements)
        return Mapping(graph, topology, assignment)
