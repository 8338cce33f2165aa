"""Topology-aware task mapping — the paper's core contribution.

Given a task graph with ``p`` vertices (usually the coalesced output of the
partitioning phase) and a topology with ``p`` processors, a *mapper* produces
a bijection task → processor minimizing **hop-bytes**:

    HB = sum over edges (a, b) of  c_ab * d(P(a), P(b))

Available mappers:

* :class:`TopoLB` — the paper's Algorithm 1 (criticality-gain greedy with
  first/second/third-order estimation functions),
* :class:`TopoCentLB` — argmax greedy (max communication with the placed
  set, first-order placement cost),
* :class:`RefineTopoLB` — hop-bytes-decreasing pairwise-swap refiner,
* :class:`RandomMapper` / :class:`IdentityMapper` — baselines,
* :class:`TwoPhaseMapper` — partition → coalesce → map → expand pipeline for
  task graphs larger than the machine,
* :class:`SimulatedAnnealingMapper` — the physical-optimization comparison
  class (high quality, high cost — the paper's related-work trade-off),
* :class:`RecursiveEmbeddingMapper` — ARM-style divisive embedding,
* :class:`LinearOrderingMapper` — Taura/Chien-style linear arrangement onto
  a snake walk of the machine,
* :class:`HybridTopoLB` — the paper's future-work semi-distributed scheme
  (groups → machine blocks, then tasks → block processors).
"""

from repro.mapping.base import Mapper, Mapping
from repro.mapping.metrics import (
    hop_bytes,
    hops_per_byte,
    per_link_loads,
    dilation_stats,
    processor_loads,
    load_imbalance,
)
from repro.mapping.estimation import EstimatorOrder, average_distance_vector
from repro.mapping.kernels import (
    KERNELS,
    DEFAULT_KERNEL,
    get_default_kernel,
)
from repro.mapping.topolb import TopoLB
from repro.mapping.topocentlb import TopoCentLB
from repro.mapping.refine import RefineTopoLB
from repro.mapping.random_map import RandomMapper, IdentityMapper
from repro.mapping.pipeline import TwoPhaseMapper
from repro.mapping.hierarchical import HierarchicalMapper
from repro.mapping.analysis import expected_random_hops_per_byte
from repro.mapping.annealing import SimulatedAnnealingMapper
from repro.mapping.recursive_embedding import RecursiveEmbeddingMapper
from repro.mapping.linear_order import LinearOrderingMapper, snake_order
from repro.mapping.hybrid import HybridTopoLB, grow_processor_blocks
from repro.mapping.bounds import hop_bytes_lower_bound
from repro.mapping.incremental import IncrementalRefineLB

__all__ = [
    "Mapper",
    "Mapping",
    "hop_bytes",
    "hops_per_byte",
    "per_link_loads",
    "dilation_stats",
    "processor_loads",
    "load_imbalance",
    "EstimatorOrder",
    "average_distance_vector",
    "KERNELS",
    "DEFAULT_KERNEL",
    "get_default_kernel",
    "TopoLB",
    "TopoCentLB",
    "RefineTopoLB",
    "RandomMapper",
    "IdentityMapper",
    "TwoPhaseMapper",
    "HierarchicalMapper",
    "expected_random_hops_per_byte",
    "SimulatedAnnealingMapper",
    "RecursiveEmbeddingMapper",
    "LinearOrderingMapper",
    "snake_order",
    "HybridTopoLB",
    "grow_processor_blocks",
    "hop_bytes_lower_bound",
    "IncrementalRefineLB",
]
