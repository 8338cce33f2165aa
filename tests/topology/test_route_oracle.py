"""Dimension-ordered routes against the NumPy implementation they replaced.

``GridTopology.route_axis_order`` walks integer coordinates with per-axis
strides. The oracle below is the earlier version, which recomputed the
direction with NumPy scalars and raveled every hop with
``np.ravel_multi_index``; both must agree on every pair and axis order,
including extent-1 and extent-2 axes, odd extents and the tie on even tori
(which goes the +1 way).
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from repro.topology import topology_from_spec


def _route_axis_order_oracle(topo, src: int, dst: int, axis_order) -> list[int]:
    shape = topo.shape
    table = topo.coords_array()
    path = [src]
    coords = list(table[src])
    target = table[dst]
    for axis in axis_order:
        extent = shape[axis]
        while coords[axis] != target[axis]:
            forward = (target[axis] - coords[axis]) % extent
            if topo.wraparound:
                step = 1 if forward <= extent - forward else -1
                coords[axis] = (coords[axis] + step) % extent
            else:
                step = 1 if target[axis] > coords[axis] else -1
                coords[axis] = coords[axis] + step
            path.append(int(np.ravel_multi_index(tuple(coords), shape)))
    return path


SHAPES = ["mesh:5x3", "torus:4x4x4", "torus:2x3x5", "torus:1x6", "mesh:7"]


@pytest.mark.parametrize("spec", SHAPES)
def test_every_pair_and_axis_order_matches_oracle(spec):
    topo = topology_from_spec(spec)
    p = topo.num_nodes
    for order in permutations(range(topo.ndim)):
        for src in range(p):
            for dst in range(p):
                got = topo.route_axis_order(src, dst, order)
                assert got == _route_axis_order_oracle(topo, src, dst, order), (
                    spec, order, src, dst)
                assert all(type(node) is int for node in got)


@pytest.mark.parametrize("spec", SHAPES)
def test_canonical_route_is_axis_order_zero_first(spec):
    topo = topology_from_spec(spec)
    for src in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            assert topo.route(src, dst) == _route_axis_order_oracle(
                topo, src, dst, range(topo.ndim))


def test_even_torus_tie_goes_plus_one():
    topo = topology_from_spec("torus:1x6")
    assert topo.route(0, 3) == [0, 1, 2, 3]
    assert topo.route(4, 1) == [4, 5, 0, 1]
    assert topo.route(5, 2) == [5, 0, 1, 2]
