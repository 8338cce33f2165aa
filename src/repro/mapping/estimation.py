"""Estimation-function machinery for TopoLB (Section 4.3 of the paper).

TopoLB scores every (unplaced task ``t``, free processor ``q``) pair with an
estimation function ``fest(t, q, P)`` approximating the contribution of ``t``
to total hop-bytes if placed on ``q``:

* **first order** — count only edges to already-placed neighbors ``j``:
  ``sum c_tj * d(q, P(j))``  (this is what TopoCentLB uses);
* **second order** — additionally charge edges to *unplaced* neighbors at the
  expected distance from ``q`` to a uniformly random processor in ``Vp``:
  ``... + (unplaced bytes of t) * mean_over_all_procs d(q, .)``;
* **third order** — same, but the expectation runs over the *still free*
  processors ``Pk`` only, so it must be refreshed every cycle (the paper's
  ``O(p^3)`` variant).

The module provides the shared vector helpers; the update loop itself lives
in :mod:`repro.mapping.topolb`.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.topology import cache
from repro.topology.base import Topology

__all__ = ["EstimatorOrder", "average_distance_vector"]


class EstimatorOrder(enum.IntEnum):
    """Which approximation of Section 4.3 the estimation function uses."""

    FIRST = 1
    SECOND = 2
    THIRD = 3


def average_distance_vector(topology: Topology) -> np.ndarray:
    """``avg[q] = mean over all processors j of d(q, j)``: the second-order
    expectation ``E_{j ~ U[Vp]} d(q, j)``.
    """
    # The all-processors mean is a pure function of the topology shape, so it
    # is cached on the instance (and shared across instances of shape-defined
    # topologies) as a read-only vector — every TopoLB.map used to pay the
    # full O(p^2) mean here.
    vec = topology._avg_distance_vector
    if vec is not None:
        return vec
    key = topology.cache_key()
    skey = (key, "average_distance_vector") if key is not None else None
    vec = cache.shared_get(skey) if skey is not None else None
    if vec is None:
        # On an integer machine the row sums are exact integers in float64
        # whatever the summation order, so the mean is bitwise the mean of a
        # float64 table. A grid machine sums per axis and builds no table;
        # any other reads its own table, the one the mappers read too.
        axes = topology.axis_distances()
        if axes is not None:
            vec = axes.row_sums() / topology.num_nodes
        else:
            vec = topology.distance_matrix().mean(axis=1)
        vec.flags.writeable = False
        if skey is not None:
            cache.shared_put(skey, vec)
    topology._avg_distance_vector = vec
    return vec
