"""Topology-oblivious partitioning (phase 1 of the two-phase approach).

The paper partitions the ``n`` compute objects into ``p`` balanced groups
before mapping, using METIS or a Charm++ greedy strategy, and notes that any
partitioning algorithm can be used. This package is the from-scratch
substitute for those two, the ones ``pipeline:partitioner=`` selects:

* :class:`MultilevelPartitioner` — METIS-style multilevel k-way pipeline
  (heavy-edge-matching coarsening, recursive-bisection initial partition,
  FM boundary refinement during uncoarsening), the default;
* :class:`GreedyPartitioner` — load-only LPT assignment (GreedyLB analog);
* :class:`RecursiveBisectionPartitioner` — BFS graph-growing bisection, the
  multilevel pipeline's initial partitioner.
"""

from repro.partition.base import Partitioner
from repro.partition.greedy import GreedyPartitioner
from repro.partition.recursive_bisection import RecursiveBisectionPartitioner
from repro.partition.multilevel import MultilevelPartitioner
from repro.partition.metrics import edge_cut_bytes, partition_imbalance, partition_sizes

__all__ = [
    "Partitioner",
    "GreedyPartitioner",
    "RecursiveBisectionPartitioner",
    "MultilevelPartitioner",
    "edge_cut_bytes",
    "partition_imbalance",
    "partition_sizes",
]
