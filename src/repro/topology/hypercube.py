"""Hypercube topology.

Included because the paper's introduction contrasts torus/mesh machines with
hypercubes (and fat-trees), whose ``P log P`` wiring makes contention a much
smaller factor; having the topology available lets the benchmarks demonstrate
that contrast (ablation benches) and exercises the mapping code on a
non-grid metric.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import Topology

__all__ = ["Hypercube"]


class Hypercube(Topology):
    """A ``d``-dimensional binary hypercube on ``2**d`` processors.

    Hop distance is the Hamming distance between node ids; routing is e-cube
    (correct the lowest differing bit first), the standard deterministic
    deadlock-free scheme.
    """

    def __init__(self, dim: int):
        if dim < 0 or dim > 24:
            raise TopologyError(f"hypercube dimension must be in [0, 24], got {dim}")
        self._dim = int(dim)
        super().__init__(1 << self._dim)

    @property
    def dim(self) -> int:
        """Number of hypercube dimensions d (p = 2**d)."""
        return self._dim

    @property
    def name(self) -> str:
        return f"hypercube({self._dim})"

    def cache_key(self) -> tuple:
        return ("Hypercube", self._dim)

    def pair_distances(self, pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
        xor = np.asarray(pu, dtype=np.uint32) ^ np.asarray(pv, dtype=np.uint32)
        return np.bitwise_count(xor).astype(np.int32)

    def distance_row(self, node: int) -> np.ndarray:
        return self._pair_row(node)

    def neighbors(self, node: int) -> list[int]:
        node = self._check_node(node)
        return [node ^ (1 << bit) for bit in range(self._dim)]

    def route(self, src: int, dst: int) -> list[int]:
        src = self._check_node(src)
        dst = self._check_node(dst)
        path = [src]
        cur = src
        for bit in range(self._dim):
            mask = 1 << bit
            if (cur ^ dst) & mask:
                cur ^= mask
                path.append(cur)
        return path

    def diameter(self) -> int:
        return self._dim

    def expected_random_distance(self) -> float:
        """E[Hamming(a,b)] for uniform a, b — each bit differs w.p. 1/2."""
        return self._dim / 2.0
