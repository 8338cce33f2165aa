"""HybridTopoLB — the paper's future-work direction, implemented.

The conclusions note: "Due to the massively large sizes of machines like
Bluegene, a distributed approach toward keeping communication localized in a
neighborhood may be needed for scalability ... Hybrid approaches
(semi-distributed) ... need to be investigated further."

This mapper is that semi-distributed scheme:

1. carve the machine into ``num_blocks`` compact processor blocks (BFS
   growth over the processor graph),
2. partition the task graph into the same number of groups (multilevel,
   comm-reducing),
3. map groups onto blocks with TopoLB on the *block quotient machine*
   (block-to-block distance = mean inter-block processor distance),
4. within each block, map the group's tasks onto the block's processors
   with TopoLB on a :class:`~repro.topology.subset.SubTopology`.

Each TopoLB instance sees a problem of size ``B`` or ``p/B`` instead of
``p``, so the cubic-ish constants shrink dramatically — the scalability
win the paper anticipates — at a hop-byte penalty (the ``zoo``
experiment reports it beside flat TopoLB).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.exceptions import MappingError
from repro.mapping.base import Mapper, Mapping
from repro.mapping.kernels import resolve_kernel
from repro.mapping.topolb import TopoLB
from repro.partition.multilevel import MultilevelPartitioner
from repro.taskgraph.coalesce import coalesce
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology
from repro.topology.matrix import MatrixTopology
from repro.topology.subset import SubTopology
from repro.utils.rng import as_rng

__all__ = ["HybridTopoLB", "grow_processor_blocks"]


def grow_processor_blocks(
    topology: Topology, num_blocks: int,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Partition processors into ``num_blocks`` compact, equal-size blocks.

    Multi-source BFS: seeds spread by farthest-point sampling, then blocks
    grow breadth-first in round-robin, each claiming unowned processors,
    capped at ``ceil(p / num_blocks)`` members.
    """
    p = topology.num_nodes
    if not 1 <= num_blocks <= p:
        raise MappingError(f"num_blocks must be in [1, {p}], got {num_blocks}")
    rng = as_rng(seed)
    cap = -(-p // num_blocks)  # ceil

    # Farthest-point seeds.
    seeds = [int(rng.integers(0, p))]
    min_dist = topology.distance_row(seeds[0]).astype(np.float64)
    for _ in range(num_blocks - 1):
        nxt = int(np.argmax(min_dist))
        seeds.append(nxt)
        min_dist = np.minimum(min_dist, topology.distance_row(nxt))

    owner = np.full(p, -1, dtype=np.int64)
    queues = []
    counts = np.zeros(num_blocks, dtype=np.int64)
    for b, s in enumerate(seeds):
        owner[s] = b
        counts[b] = 1
        queues.append(deque([s]))

    claimed = int(num_blocks)
    while claimed < p:
        progress = False
        for b in range(num_blocks):
            # Round-robin growth: each block expands frontier nodes until it
            # claims at least one processor (or exhausts its frontier), so
            # blocks grow at matched rates and stay compact.
            while queues[b] and counts[b] < cap:
                v = queues[b].popleft()
                claimed_here = False
                for nbr in topology.neighbors(v):
                    if owner[nbr] < 0 and counts[b] < cap:
                        owner[nbr] = b
                        counts[b] += 1
                        claimed += 1
                        queues[b].append(nbr)
                        claimed_here = True
                if claimed_here:
                    progress = True
                    break
        if not progress:
            # Disconnected leftovers (or all frontiers exhausted/capped):
            # hand each orphan to the nearest under-cap block.
            for v in np.flatnonzero(owner < 0):
                row = topology.distance_row(int(v))
                open_blocks = np.flatnonzero(counts < cap)
                best = min(
                    open_blocks,
                    key=lambda b: min(row[owner == b]) if (owner == b).any() else np.inf,
                )
                owner[v] = best
                counts[best] += 1
                claimed += 1
    return owner


class HybridTopoLB(Mapper):
    """Two-level (semi-distributed) TopoLB: groups -> blocks, tasks -> block."""

    strategy_name = "HybridTopoLB"

    def __init__(self, num_blocks: int = 8,
                 seed: int | np.random.Generator | None = 0,
                 kernel: str | None = None):
        if num_blocks < 1:
            raise MappingError(f"num_blocks must be >= 1, got {num_blocks}")
        self._num_blocks = int(num_blocks)
        self._seed = seed
        self._kernel = resolve_kernel(kernel)

    def map(self, graph: TaskGraph, topology: Topology) -> Mapping:
        n = self._check_sizes(graph, topology)
        blocks = min(self._num_blocks, n)
        if blocks == 1:
            return TopoLB(kernel=self._kernel).map(graph, topology)
        rng = as_rng(self._seed)

        # --- level 1: blocks of processors, groups of tasks ---------------
        owner = grow_processor_blocks(topology, blocks, rng)
        # Partition by *count* (unit weights): within-block mapping must be
        # bijective, so group sizes have to match block sizes exactly after
        # reconciliation.
        unit_graph = TaskGraph(
            n, graph.edges(), vertex_weights=np.ones(n)
        )
        groups = np.asarray(
            MultilevelPartitioner(seed=rng).partition(unit_graph, blocks),
            dtype=np.int64,
        )
        quotient = coalesce(graph, groups, blocks)

        block_machine = self._block_machine(topology, owner, blocks)
        group_to_block = (
            TopoLB(kernel=self._kernel).map(quotient, block_machine).assignment
        )

        # Force each group's size to equal its block's size (moves the
        # least-attached tasks of over-full groups toward under-full ones).
        block_sizes = np.bincount(owner, minlength=blocks)
        needed = block_sizes[group_to_block]
        self._reconcile_sizes(graph, groups, needed, blocks)

        # --- level 2: within each block, TopoLB on the subset --------------
        assignment = np.full(n, -1, dtype=np.int64)
        for g in range(blocks):
            b = int(group_to_block[g])
            block_procs = np.flatnonzero(owner == b)
            member_tasks = np.flatnonzero(groups == g)
            sub = SubTopology(topology, block_procs)
            local_graph = graph.induced(member_tasks)
            local = TopoLB(kernel=self._kernel).map(local_graph, sub).assignment
            assignment[member_tasks] = sub.parent_nodes[local]
        if (assignment < 0).any():
            raise MappingError("internal: hybrid mapping left tasks unassigned")
        return Mapping(graph, topology, assignment)

    @staticmethod
    def _reconcile_sizes(graph: TaskGraph, groups: np.ndarray,
                         needed: np.ndarray, blocks: int) -> None:
        """Move tasks between groups until ``count(g) == needed[g]`` for all g.

        Each move takes the task of an over-full group with the best
        (attraction to an under-full group) - (attachment to its own group)
        score; total counts match by construction so this terminates.
        """
        counts = np.bincount(groups, minlength=blocks)
        while True:
            over = np.flatnonzero(counts > needed)
            if len(over) == 0:
                return
            g = int(over[0])
            under = np.flatnonzero(counts < needed)
            under_set = set(int(u) for u in under)
            best: tuple[float, int, int] | None = None
            for t in np.flatnonzero(groups == g):
                t = int(t)
                nbrs, wts = graph.neighbor_slice(t)
                conn: dict[int, float] = {}
                for j, c in zip(nbrs.tolist(), wts.tolist()):
                    gg = int(groups[j])
                    conn[gg] = conn.get(gg, 0.0) + c
                internal = conn.get(g, 0.0)
                for h in under_set:
                    score = conn.get(h, 0.0) - internal
                    if best is None or score > best[0]:
                        best = (score, t, h)
            assert best is not None  # counts mismatch implies a move exists
            _, t, h = best
            groups[t] = h
            counts[g] -= 1
            counts[h] += 1

    # ------------------------------------------------------------ helpers
    @staticmethod
    def _block_machine(topology: Topology, owner: np.ndarray, blocks: int) -> Topology:
        """Quotient machine: one node per block, block-mean distances.

        The metric (mean processor distance between blocks) captures the
        machine geometry at block granularity and works for any topology —
        including indirect ones whose blocks share no direct links.
        """
        dist = np.zeros((blocks, blocks), dtype=np.float64)
        members = [np.flatnonzero(owner == b) for b in range(blocks)]
        full = topology.distance_matrix().astype(np.float64, copy=False)
        for a in range(blocks):
            for b in range(a + 1, blocks):
                mean = full[np.ix_(members[a], members[b])].mean()
                dist[a, b] = dist[b, a] = max(mean, 1e-9)
        return MatrixTopology(dist)
