"""Recursive bipartition embedding — the ARM-style mapper.

Ercal, Ramanujam & Sadayappan's "Allocation by Recursive Mincut" (cited by
the paper) simultaneously bisects the task graph (minimizing cut) and the
processor set (keeping each half compact), assigning task halves to
processor halves; recursion bottoms out at one task per processor. The
original targets hypercubes; this implementation splits *any* topology by
growing one compact half with BFS over the processor graph, so grids and
arbitrary machines work too.

A useful structural baseline: divisive where TopoLB is agglomerative.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.mapping.base import Mapper, Mapping
from repro.partition.base import csr_lists
from repro.partition.recursive_bisection import grow_bisection
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology
from repro.utils.rng import as_rng

__all__ = ["RecursiveEmbeddingMapper"]


class RecursiveEmbeddingMapper(Mapper):
    """ARM-style simultaneous recursive bisection of tasks and processors."""

    strategy_name = "RecursiveEmbed"

    def __init__(self, seed: int | np.random.Generator | None = 0):
        self._seed = seed

    def map(self, graph: TaskGraph, topology: Topology) -> Mapping:
        n = self._check_sizes(graph, topology)
        rng = as_rng(self._seed)
        assignment = np.full(n, -1, dtype=np.int64)
        self._embed(graph, csr_lists(graph), topology, np.arange(n),
                    np.arange(n), assignment, rng)
        return Mapping(graph, topology, assignment)

    # ------------------------------------------------------------------ core
    def _embed(self, graph: TaskGraph, csr: tuple, topology: Topology,
               tasks: np.ndarray, procs: np.ndarray, assignment: np.ndarray,
               rng: np.random.Generator) -> None:
        if len(tasks) == 1:
            assignment[tasks[0]] = procs[0]
            return
        k1 = len(tasks) // 2
        k2 = len(tasks) - k1

        # Task side: balanced mincut-ish bisection (graph growing).
        side_a = grow_bisection(graph, csr, tasks, k1, k2, rng)
        tasks_a, tasks_b = tasks[side_a], tasks[~side_a]

        # Processor side: grow a compact region of matching size by BFS.
        procs_a_mask = self._grow_proc_region(topology, procs, len(tasks_a), rng)
        procs_a, procs_b = procs[procs_a_mask], procs[~procs_a_mask]

        self._embed(graph, csr, topology, tasks_a, procs_a, assignment, rng)
        self._embed(graph, csr, topology, tasks_b, procs_b, assignment, rng)

    @staticmethod
    def _grow_proc_region(topology: Topology, procs: np.ndarray, size: int,
                          rng: np.random.Generator) -> np.ndarray:
        """Boolean mask over ``procs``: a BFS-compact region of ``size``."""
        member = {int(v): i for i, v in enumerate(procs)}
        picked = np.zeros(len(procs), dtype=bool)
        # Seed from a corner-ish processor: the member with the largest mean
        # distance to the others (deterministic compact growth).
        sub = procs.astype(np.int64)
        mean_dist = np.array(
            [topology.distance_row(int(v))[sub].mean() for v in sub]
        )
        seed = int(sub[int(np.argmax(mean_dist))])
        queue: deque[int] = deque([seed])
        seen = {seed}
        count = 0
        while count < size:
            if not queue:
                remaining = procs[~picked]
                nxt = int(remaining[0])
                queue.append(nxt)
                seen.add(nxt)
            v = queue.popleft()
            i = member[v]
            if picked[i]:
                continue
            picked[i] = True
            count += 1
            for nbr in topology.neighbors(v):
                if nbr in member and nbr not in seen and not picked[member[nbr]]:
                    queue.append(nbr)
                    seen.add(nbr)
        return picked
