"""TwoPhaseMapper — the paper's partition-then-map pipeline (Section 4).

Phase 1 partitions the ``n`` compute objects into ``p`` balanced groups with
a topology-oblivious partitioner (METIS substitute by default). Phase 2
coalesces the task graph along the partition and maps the ``p`` groups onto
the ``p`` processors with a topology-aware mapper (TopoLB by default),
optionally followed by the RefineTopoLB swap refiner. The returned
:class:`~repro.mapping.base.Mapping` is over the *original* tasks: task
``t`` lands on the processor assigned to its group.
"""

from __future__ import annotations

import inspect

import numpy as np

from repro import obs
from repro.mapping.base import Mapper, Mapping
from repro.mapping.context import MappingContext, context_for
from repro.mapping.refine import RefineTopoLB
from repro.partition.base import Partitioner
from repro.taskgraph.coalesce import coalesce
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology

__all__ = ["TwoPhaseMapper"]


class TwoPhaseMapper(Mapper):
    """Partition → coalesce → map → (refine) → expand.

    Parameters
    ----------
    partitioner:
        Phase-1 strategy; defaults to the multilevel METIS substitute.
    mapper:
        Phase-2 strategy; defaults to second-order TopoLB.
    refiner:
        Optional :class:`RefineTopoLB` applied to the group-level mapping.
    """

    strategy_name = "TwoPhase"

    def __init__(
        self,
        partitioner: Partitioner | None = None,
        mapper: Mapper | None = None,
        refiner: RefineTopoLB | None = None,
    ):
        if partitioner is None:
            from repro.partition.multilevel import MultilevelPartitioner

            partitioner = MultilevelPartitioner()
        if mapper is None:
            from repro.mapping.topolb import TopoLB

            mapper = TopoLB()
        self._partitioner = partitioner
        self._mapper = mapper
        self._refiner = refiner
        self._last_groups: np.ndarray | None = None
        self._last_group_mapping: Mapping | None = None

    @property
    def last_groups(self) -> np.ndarray | None:
        """The most recent phase-1 group assignment (for diagnostics)."""
        return self._last_groups

    @property
    def last_group_mapping(self) -> Mapping | None:
        """The most recent group-level mapping (for hop-byte accounting)."""
        return self._last_group_mapping

    def map(
        self,
        graph: TaskGraph,
        topology: Topology,
        *,
        ctx: MappingContext | None = None,
    ) -> Mapping:
        """Map ``graph``. ``ctx`` is the shared context for
        ``(graph, topology)``; phase 2 derives (and shares) its own context
        for the coalesced quotient graph, since that is the graph the mapper
        and refiner actually see.
        """
        p = topology.num_nodes
        if graph.num_tasks == p:
            # One task per processor: phase 1 is the identity.
            groups = np.arange(graph.num_tasks)
            quotient = graph
        else:
            with obs.timer("pipeline.partition"):
                groups = np.asarray(
                    self._partitioner.partition(graph, p), dtype=np.int64
                )
            with obs.timer("pipeline.coalesce"):
                quotient = coalesce(graph, groups, p)

        # One shared context for the graph phase 2 actually maps: the
        # quotient when partitioning ran, the original graph otherwise.
        if quotient is graph and ctx is not None:
            qctx = ctx
        else:
            qctx = context_for(quotient, topology)
        ctx_kwargs = {"ctx": qctx} if self._accepts_ctx(self._mapper) else {}
        with obs.timer("pipeline.map"):
            group_mapping = self._mapper.map(quotient, topology, **ctx_kwargs)
        if self._refiner is not None:
            with obs.timer("pipeline.refine"):
                group_mapping = self._refiner.refine(group_mapping, ctx=qctx)

        self._last_groups = groups
        self._last_group_mapping = group_mapping
        return Mapping(graph, topology, group_mapping.assignment[groups])

    @staticmethod
    def _accepts_ctx(mapper: Mapper) -> bool:
        return "ctx" in inspect.signature(mapper.map).parameters
