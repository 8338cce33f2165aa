"""Partitioner interface."""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import PartitionError
from repro.taskgraph.graph import TaskGraph

__all__ = ["Partitioner", "csr_lists"]


def csr_lists(graph: TaskGraph) -> tuple[list[int], list[int], list[float], list[float]]:
    """``(indptr, indices, edge bytes, vertex weights)`` as plain lists, for
    the scalar phase-1 loops that NumPy scalar indexing would dominate."""
    indptr, indices, weights = graph.csr_arrays()
    return indptr.tolist(), indices.tolist(), weights.tolist(), graph.vertex_weights.tolist()


class Partitioner(abc.ABC):
    """Strategy interface: split ``n`` tasks into ``k`` balanced groups.

    Implementations return a length-``n`` int array of group ids covering
    ``0..k-1`` with every group non-empty (the mapper needs one group per
    processor). Balance is best-effort within the implementation's tolerance;
    communication-awareness varies by strategy.
    """

    def _check(self, graph: TaskGraph, k: int) -> int:
        k = int(k)
        if k < 1:
            raise PartitionError(f"k must be >= 1, got {k}")
        if k > graph.num_tasks:
            raise PartitionError(
                f"cannot split {graph.num_tasks} tasks into {k} non-empty groups"
            )
        return k

    @abc.abstractmethod
    def partition(self, graph: TaskGraph, k: int) -> np.ndarray:
        """Compute the group assignment."""

    @staticmethod
    def _validate_result(groups: np.ndarray, n: int, k: int) -> np.ndarray:
        """Internal sanity check applied by implementations before returning."""
        if groups.shape != (n,):
            raise PartitionError(f"internal: bad groups shape {groups.shape}")
        counts = np.bincount(groups, minlength=k)
        if len(counts) > k or (counts == 0).any():
            raise PartitionError("internal: partition produced an empty group")
        return groups

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"
