"""Mapper interface and the :class:`Mapping` result object."""

from __future__ import annotations

import abc
from collections.abc import Sequence

import numpy as np

from repro.exceptions import MappingError
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology

__all__ = ["Mapping", "Mapper"]


class Mapping:
    """An assignment of tasks to processors, with cached quality metrics.

    ``assignment[t]`` is the processor hosting task ``t``. Many-to-one
    assignments are allowed (the pipeline's expanded mappings put whole
    groups on one processor); the phase-2 mappers always produce injective
    ones (bijections when ``n == p``).
    """

    def __init__(self, graph: TaskGraph, topology: Topology, assignment: Sequence[int]):
        arr = np.asarray(assignment, dtype=np.int64).copy()
        if arr.shape != (graph.num_tasks,):
            raise MappingError(
                f"assignment must have shape ({graph.num_tasks},), got {arr.shape}"
            )
        if len(arr) and (arr.min() < 0 or arr.max() >= topology.num_nodes):
            raise MappingError("assignment references processors outside the topology")
        arr.flags.writeable = False
        self._graph = graph
        self._topology = topology
        self._assignment = arr
        self._hop_bytes: float | None = None

    @property
    def graph(self) -> TaskGraph:
        """The task graph that was mapped."""
        return self._graph

    @property
    def topology(self) -> Topology:
        """The machine the tasks were mapped onto."""
        return self._topology

    @property
    def assignment(self) -> np.ndarray:
        """Read-only task → processor array."""
        return self._assignment

    def is_bijection(self) -> bool:
        """True when every processor hosts exactly one task."""
        if self._graph.num_tasks != self._topology.num_nodes:
            return False
        return self.is_injective()

    def is_injective(self) -> bool:
        """True when no processor hosts more than one task.

        Weaker than :meth:`is_bijection`: ``n < p`` tasks placed one per
        processor are injective without covering every processor.
        """
        return len(np.unique(self._assignment)) == self._graph.num_tasks

    @property
    def hop_bytes(self) -> float:
        """Total hop-bytes of this mapping (cached)."""
        if self._hop_bytes is None:
            from repro.mapping.metrics import hop_bytes

            self._hop_bytes = hop_bytes(self._graph, self._topology, self._assignment)
        return self._hop_bytes

    @property
    def hops_per_byte(self) -> float:
        """Average hops traveled per communicated byte."""
        from repro.mapping.metrics import hops_ratio

        return hops_ratio(self.hop_bytes, self._graph.total_bytes)

    def with_assignment(self, assignment: Sequence[int]) -> "Mapping":
        """A new Mapping over the same graph/topology (used by refiners)."""
        return Mapping(self._graph, self._topology, assignment)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Mapping n={self._graph.num_tasks} on {self._topology.name} "
            f"hops/byte={self.hops_per_byte:.3f}>"
        )


class Mapper(abc.ABC):
    """Strategy interface: produce a :class:`Mapping` for (graph, topology).

    Phase-2 mappers require ``graph.num_tasks == topology.num_nodes`` (one
    group per processor, as the paper assumes after partitioning); those
    whose class sets :attr:`places_underfull` also place ``n < p`` tasks,
    one per processor. Either way they raise
    :class:`~repro.exceptions.MappingError` on a size they cannot place.
    """

    #: Class-level strategy name used by the runtime registry.
    strategy_name: str = "mapper"
    #: Whether :meth:`map` places ``n < p`` tasks injectively (``n == p``
    #: is always a bijection).
    places_underfull: bool = False

    def _check_sizes(self, graph: TaskGraph, topology: Topology) -> int:
        n, p = graph.num_tasks, topology.num_nodes
        if n == p or (self.places_underfull and n < p):
            return n
        relation = "<=" if self.places_underfull else "=="
        raise MappingError(
            f"{type(self).__name__} needs |tasks| {relation} |processors|; "
            f"got {n} tasks on {p} processors "
            "(partition/coalesce first, e.g. via TwoPhaseMapper)"
        )

    @abc.abstractmethod
    def map(self, graph: TaskGraph, topology: Topology) -> Mapping:
        """Compute a mapping of ``graph`` onto ``topology``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"
