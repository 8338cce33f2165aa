"""Baseline mappers: random placement and the identity/isomorphism map.

Random placement is the paper's baseline everywhere (GreedyLB's placement is
"essentially random" from the topology's point of view); the identity map is
the optimal mapping for Table 1, where the task pattern is an isomorphic
sub-grid of the machine.
"""

from __future__ import annotations

import numpy as np

from repro.mapping.base import Mapper, Mapping
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology
from repro.utils.rng import as_rng

__all__ = ["RandomMapper", "IdentityMapper"]


class RandomMapper(Mapper):
    """Uniformly random bijection task → processor (a uniformly random
    injection when ``n < p``).

    Expected hops-per-byte equals the topology's expected random-pair
    distance (``sqrt(p)/2`` on a square 2D torus, ``3 cbrt(p)/4`` on a cubic
    3D torus — the dashed analytic lines of Figures 1 and 3).
    """

    strategy_name = "RandomLB"
    places_underfull = True

    def __init__(self, seed: int | np.random.Generator | None = None):
        self._seed = seed

    def map(self, graph: TaskGraph, topology: Topology) -> Mapping:
        n = self._check_sizes(graph, topology)
        rng = as_rng(self._seed)
        # The first n of a random permutation of all p processors: uniform
        # over injective placements, and rng.permutation(n) when n == p.
        return Mapping(graph, topology,
                       rng.permutation(topology.num_nodes)[:n])


class IdentityMapper(Mapper):
    """Task ``t`` goes to processor ``t``.

    When the task pattern was generated with the same C-order grid layout as
    the topology (e.g. an ``(8,8,8)`` Jacobi pattern on an ``(8,8,8)`` mesh),
    this is the paper's "simple isomorphism mapping": every message travels
    exactly one hop.
    """

    strategy_name = "IdentityLB"

    def map(self, graph: TaskGraph, topology: Topology) -> Mapping:
        n = self._check_sizes(graph, topology)
        return Mapping(graph, topology, np.arange(n))
