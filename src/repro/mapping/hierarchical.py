"""HierarchicalMapper — multilevel coarsen → map → uncoarsen mapping.

Every direct mapper here works on dense per-(graph, topology) tables, which
caps it at a few thousand processors. The multilevel scheme (Schulz & Woydt;
Predari et al.) lifts that cap by shrinking *both* sides of the problem
until the dense mappers fit, then walking back up:

1. **Task coarsening** — heavy-edge matching + contraction
   (:mod:`repro.partition.coarsening`) until the task count fits the
   machine.
2. **Joint coarsening** — while the machine is still larger than ``stop``,
   halve it with :func:`~repro.topology.aggregate.coarsen_machine` (grid
   machines halve their largest extent; groups stay geometric blocks) and
   contract the task graph in lockstep so tasks keep fitting.
3. **Coarse mapping** — any inner mapper spec (default TopoLB) places the
   coarsest graph on the coarsest machine.
4. **Uncoarsening** — level by level, each coarse task's children spread
   injectively over their group's processors (spill repairs to the
   nearest free processor), then a bounded
   :class:`~repro.mapping.refine.RefineTopoLB` pass polishes the fine
   level. Per-level cheap-tier validation guards every prolongation.
5. **Expansion** — the task-only coarsening maps compose back to the
   original tasks (many-to-one, like the two-phase pipeline).

The final mapping is produced entirely by kernel-bit-identical components,
so it is itself bit-identical across the ``vectorized``/``reference``
kernels — the full-tier kernel-differential oracle applies unchanged.
"""

from __future__ import annotations

import inspect

import numpy as np

from repro import obs
from repro.exceptions import MappingError
from repro.mapping.base import Mapper, Mapping
from repro.mapping.context import MappingContext, context_for
from repro.mapping.refine import RefineTopoLB
from repro.partition.coarsening import coarsen_toward
from repro.taskgraph.graph import TaskGraph
from repro.topology.aggregate import coarsen_machine
from repro.topology.base import Topology
from repro.topology.grid import GridTopology

__all__ = ["HierarchicalMapper"]

#: Above this processor count a level skips RefineTopoLB, whose n x p cost
#: table grows with the square of the level: 256 MiB of int32 at 8192 tasks
#: with integer weights and distances, 512 MiB of float64 otherwise. Its
#: distances are no limit: on a grid machine and its grouped levels the
#: compiled kernels read per-axis tables. Raising the limit would refine
#: more levels and change results.
_MATRIX_LIMIT = 8192


class _Level:
    """One joint coarsening level, recorded fine-side."""

    __slots__ = ("graph", "topology", "fine2coarse", "groups")

    def __init__(self, graph, topology, fine2coarse, groups):
        self.graph = graph
        self.topology = topology
        self.fine2coarse = fine2coarse  # task map to the coarser level (or None)
        self.groups = groups  # processor map to the coarser machine


class HierarchicalMapper(Mapper):
    """Multilevel hierarchical mapper (see module docstring).

    Parameters
    ----------
    inner:
        Mapper for the coarsest level; defaults to second-order TopoLB
        running ``kernel``. When the coarsest level has fewer tasks than
        processors it must place ``n < p`` (TopoLB and friends do).
    levels:
        ``"auto"`` (coarsen the machine until ``stop``) or a positive int
        capping the number of machine-coarsening levels.
    refine_window:
        RefineTopoLB sweeps after each uncoarsening step; 0 disables
        refinement. Refinement is skipped on levels whose machine exceeds
        ``_MATRIX_LIMIT`` processors, for the size of its ``n x p`` cost
        table.
    stop:
        Machine size at which joint coarsening stops — the size the inner
        mapper actually runs at.
    seed:
        Drives the matching visit order and the refiner sweep order.
    kernel:
        Kernel of the per-level refiners and of the default inner mapper
        (``None`` = the default kernel; the full-tier kernel-differential
        oracle rebuilds the mapper with ``"reference"``).

    Every uncoarsened level is checked by cheap-tier validation (bounds,
    injectivity, additivity, metrics consistency).
    """

    strategy_name = "Multilevel"

    def __init__(
        self,
        inner: Mapper | None = None,
        levels: int | str = "auto",
        refine_window: int = 2,
        stop: int = 1024,
        seed: int = 0,
        kernel: str | None = None,
    ):
        if inner is None:
            from repro.mapping.topolb import TopoLB

            inner = TopoLB(kernel=kernel)
        if levels != "auto":
            try:
                levels = int(levels)
            except (TypeError, ValueError):
                raise MappingError(
                    f"levels must be 'auto' or a positive int, got {levels!r}"
                ) from None
            if levels < 1:
                raise MappingError(f"levels must be 'auto' or >= 1, got {levels}")
        if refine_window < 0:
            raise MappingError(f"refine_window must be >= 0, got {refine_window}")
        if stop < 1:
            raise MappingError(f"stop must be >= 1, got {stop}")
        self._inner = inner
        self._levels = levels
        self._refine_window = int(refine_window)
        self._stop = int(stop)
        self._seed = int(seed)
        self._kernel = kernel
        self._last_groups: np.ndarray | None = None
        self._last_group_mapping: Mapping | None = None
        #: per-level (num_tasks, num_procs, assignment) snapshots of the most
        #: recent uncoarsening, coarsest first — the property tests assert
        #: the level invariants on these.
        self.last_level_assignments: list[tuple[int, int, np.ndarray]] = []

    # ------------------------------------------------------------- accessors
    @property
    def last_groups(self) -> np.ndarray | None:
        """Original-task → group map of the last run (for diagnostics)."""
        return self._last_groups

    @property
    def last_group_mapping(self) -> Mapping | None:
        """The injective group-level mapping on the full machine."""
        return self._last_group_mapping

    # ------------------------------------------------------------------- map
    def map(
        self,
        graph: TaskGraph,
        topology: Topology,
        *,
        ctx: MappingContext | None = None,
    ) -> Mapping:
        capacity = topology.num_nodes
        if graph.num_tasks < 1:
            raise MappingError("cannot map an empty task graph")

        # Phase 1: task-only coarsening down to machine capacity.
        expand_maps: list[np.ndarray] = []
        g = graph
        with obs.timer("multilevel.coarsen_tasks"):
            while g.num_tasks > capacity:
                g, fine2coarse = coarsen_toward(
                    g, capacity, seed=self._seed + len(expand_maps)
                )
                expand_maps.append(fine2coarse)
        group_graph = g  # the graph that will live injectively on `topology`

        # Phase 2: joint machine + task coarsening.
        joint: list[_Level] = []
        topo: Topology = topology
        shape = topology.shape if isinstance(topology, GridTopology) else None
        with obs.timer("multilevel.coarsen_machine"):
            while self._keep_coarsening(topo, len(joint)):
                ctopo, groups, shape = coarsen_machine(topo, shape=shape)
                cap = ctopo.num_nodes
                if g.num_tasks > cap:
                    g2, fine2coarse = coarsen_toward(
                        g, cap, seed=self._seed + 101 + len(joint)
                    )
                    if g2.num_tasks > cap:
                        break  # machine shrinks faster than the graph can
                else:
                    g2, fine2coarse = g, None
                joint.append(_Level(g, topo, fine2coarse, groups))
                g, topo = g2, ctopo

        # Phase 3: map the coarsest level with the inner mapper.
        with obs.timer("multilevel.coarse_map"):
            assignment = self._map_coarsest(g, topo)

        # Phase 4: uncoarsen, refining and validating each level.
        self.last_level_assignments = [
            (g.num_tasks, topo.num_nodes, assignment.copy())
        ]
        self._check_level(g, topo, assignment, level=len(joint))
        with obs.timer("multilevel.uncoarsen"):
            for depth, level in enumerate(reversed(joint)):
                assignment = self._prolong(level, assignment)
                assignment = self._refine_level(level, assignment, depth)
                self.last_level_assignments.append(
                    (
                        level.graph.num_tasks,
                        level.topology.num_nodes,
                        assignment.copy(),
                    )
                )
                self._check_level(
                    level.graph, level.topology, assignment,
                    level=len(joint) - 1 - depth,
                )

        # Phase 5: expand the task-only coarsening back to the original tasks.
        self._last_group_mapping = Mapping(group_graph, topology, assignment)
        comp = np.arange(graph.num_tasks, dtype=np.int64)
        for fine2coarse in expand_maps:
            comp = fine2coarse[comp]  # original task -> group in group_graph
        self._last_groups = comp
        return Mapping(graph, topology, assignment[comp])

    # -------------------------------------------------------------- internals
    def _keep_coarsening(self, topo: Topology, depth: int) -> bool:
        if topo.num_nodes <= max(self._stop, 1):
            return False
        if self._levels != "auto" and depth >= self._levels:
            return False
        return topo.num_nodes > 1

    def _map_coarsest(self, g: TaskGraph, topo: Topology) -> np.ndarray:
        kwargs = {}
        if "ctx" in inspect.signature(self._inner.map).parameters:
            kwargs["ctx"] = context_for(g, topo)
        mapping = self._inner.map(g, topo, **kwargs)
        return np.asarray(mapping.assignment, dtype=np.int64).copy()

    def _prolong(self, level: _Level, coarse_assignment: np.ndarray) -> np.ndarray:
        """Place each coarse task's children inside its group's processors.

        Children (ascending id) take the group's members (ascending id)
        one-to-one; any spill goes to the nearest free processor (ties to
        the smallest id), anchored at the group's first member.
        Feasibility (`n_fine <= fine capacity`) is guaranteed by the lockstep
        coarsening loop, so the repair queue always drains.
        """
        fine_graph, fine_topo = level.graph, level.topology
        n = fine_graph.num_tasks
        p = fine_topo.num_nodes
        out = np.full(n, -1, dtype=np.int64)

        # group id -> ascending member processors
        groups = level.groups
        order = np.argsort(groups, kind="stable")
        counts = np.bincount(groups, minlength=int(groups.max()) + 1)
        members = np.split(order, np.cumsum(counts)[:-1])

        # coarse task -> ascending children tasks
        if level.fine2coarse is None:
            children = [np.array([t]) for t in range(n)]
        else:
            f2c = level.fine2coarse
            corder = np.argsort(f2c, kind="stable")
            ccounts = np.bincount(f2c, minlength=int(f2c.max()) + 1)
            children = np.split(corder, np.cumsum(ccounts)[:-1])

        used = np.zeros(p, dtype=bool)
        spill: list[tuple[int, int]] = []  # (fine task, anchor processor)
        for c, proc in enumerate(coarse_assignment.tolist()):
            kids = children[c]
            slots = members[proc]
            take = min(len(kids), len(slots))
            out[kids[:take]] = slots[:take]
            used[slots[:take]] = True
            anchor = int(slots[0])
            for t in kids[take:].tolist():
                spill.append((int(t), anchor))

        if spill:
            free = ~used
            for t, anchor in spill:
                candidates = np.flatnonzero(free)
                if len(candidates) == 0:
                    raise MappingError(
                        "multilevel prolongation ran out of processors "
                        "(internal feasibility invariant violated)"
                    )
                dist = fine_topo.pair_distances(
                    np.full(len(candidates), anchor), candidates
                )
                pick = int(candidates[int(np.argmin(dist))])
                out[t] = pick
                free[pick] = False
        return out

    def _refine_level(
        self, level: _Level, assignment: np.ndarray, depth: int
    ) -> np.ndarray:
        if self._refine_window == 0:
            return assignment
        fine_topo = level.topology
        if fine_topo.num_nodes > _MATRIX_LIMIT:
            # Above the dense limit prolongation order is all the
            # refinement this level gets.
            return assignment
        graph = level.graph
        fctx = context_for(graph, fine_topo)
        mapping = Mapping(graph, fine_topo, assignment)
        refiner = RefineTopoLB(
            max_sweeps=self._refine_window,
            seed=self._seed + 201 + depth,
            kernel=self._kernel,
        )
        refined = refiner.refine(mapping, ctx=fctx)
        return np.asarray(refined.assignment, dtype=np.int64).copy()

    def _check_level(
        self,
        graph: TaskGraph,
        topology: Topology,
        assignment: np.ndarray,
        level: int,
    ) -> None:
        """Cheap-tier validation of one level's (injective) assignment."""
        from repro.validate.core import validate_mapping

        validate_mapping(
            graph, topology, assignment,
            level="cheap",
            topology_spec=f"multilevel level {level}: {topology.name}",
        )
