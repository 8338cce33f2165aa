"""``Topology.pair_distances`` against oracles that never call it.

Every machine class must return exactly ``distance_matrix()[pu, pv]`` —
same values, same dtype. The expected distances come from outside the
class: breadth-first search over ``link_graph()`` for the networks with
links, the stored matrix for a matrix machine, Floyd-Warshall over the link
costs for a weighted graph, and the oracle rows of the parent mapped by
hand for the views (subset, grouped).
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.topology import (
    ArbitraryTopology,
    Dragonfly,
    FatTree,
    Hypercube,
    MatrixTopology,
    Mesh,
    SubTopology,
    Torus,
    coarsen_machine,
)


def bfs_oracle(topology) -> np.ndarray:
    """Processor-to-processor hop counts by BFS over ``link_graph()``."""
    graph = topology.link_graph()
    p = topology.num_nodes
    out = np.full((p, p), -1, np.int64)
    for src in range(p):
        seen = {src: 0}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            for nbr in graph.neighbors(node):
                if nbr not in seen:
                    seen[nbr] = seen[node] + 1
                    frontier.append(nbr)
        for dst, hops in seen.items():
            if dst < p:
                out[src, dst] = hops
    assert (out >= 0).all(), "oracle found a disconnected machine"
    return out


def floyd_warshall(num_nodes: int, edges) -> np.ndarray:
    dist = np.full((num_nodes, num_nodes), np.inf)
    np.fill_diagonal(dist, 0.0)
    for a, b, cost in edges:
        dist[a, b] = dist[b, a] = min(dist[a, b], cost)
    for k in range(num_nodes):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    return dist


LINKED = [
    Mesh((1,)),
    Mesh((2,)),
    Mesh((5,)),
    Mesh((2, 3)),
    Mesh((3, 1, 4)),
    Torus((1,)),
    Torus((2, 2)),
    Torus((1, 4)),
    Torus((3, 5)),
    Torus((4, 3, 2)),
    Hypercube(0),
    Hypercube(1),
    Hypercube(4),
    FatTree(2, 1),
    FatTree(2, 3),
    FatTree(3, 2),
    Dragonfly(1, 1, 1),
    Dragonfly(1, 3, 2),
    Dragonfly(2, 1, 3),
    Dragonfly(3, 2, 2),
    Dragonfly(4, 4, 2),
]


def _cases():
    for topo in LINKED:
        yield topo.name, topo, bfs_oracle(topo)

    rng = np.random.default_rng(5)
    points = rng.uniform(0.0, 4.0, size=(7, 2))
    metric = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
    yield "matrix", MatrixTopology(metric), metric

    edges = [(0, 1, 1.5), (1, 2, 0.25), (2, 3, 2.0), (3, 4, 1.0), (4, 0, 3.5),
             (1, 3, 2.75)]
    yield "weighted-graph", ArbitraryTopology(5, edges), floyd_warshall(5, edges)
    ring = [(v, (v + 1) % 6, 1.0) for v in range(6)]
    yield "unit-graph", ArbitraryTopology(6, ring), floyd_warshall(6, ring)

    torus = Torus((4, 4))
    nodes = [3, 0, 7, 12, 9, 10]
    parent = bfs_oracle(torus)
    yield "subset", SubTopology(torus, nodes), parent[np.ix_(nodes, nodes)]

    torus = Torus((4, 6))
    level, shape = torus, None
    reps = np.arange(torus.num_nodes)
    for _ in range(2):
        level, _, shape = coarsen_machine(level, shape=shape)
        reps = reps[level.representatives]
    yield "grouped-grid", level, bfs_oracle(torus)[np.ix_(reps, reps)]

    fattree = FatTree(2, 3)
    grouped, _, _ = coarsen_machine(fattree)
    reps = grouped.representatives
    yield "grouped-fattree", grouped, bfs_oracle(fattree)[np.ix_(reps, reps)]


CASES = list(_cases())


@pytest.mark.parametrize(
    "topology,truth", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_pair_distances_match_oracle(topology, truth):
    p = topology.num_nodes
    assert truth.shape == (p, p)
    pu, pv = (a.ravel() for a in np.meshgrid(np.arange(p), np.arange(p)))
    rng = np.random.default_rng(p)
    shuffled = rng.permutation(len(pu))
    pu, pv = pu[shuffled], pv[shuffled]

    got = topology.pair_distances(pu, pv)
    assert got.shape == (len(pu),)
    np.testing.assert_array_equal(got, truth[pu, pv])

    dense = topology.distance_matrix()
    assert got.dtype == dense[pu, pv].dtype
    np.testing.assert_array_equal(got, dense[pu, pv])
    np.testing.assert_array_equal(
        topology.distance_row(p - 1), truth[p - 1]
    )

    empty = np.zeros(0, dtype=np.int64)
    none = topology.pair_distances(empty, empty)
    assert none.shape == (0,)
    assert none.dtype == dense.dtype


def test_weighted_graph_keeps_fractional_distances():
    topo = ArbitraryTopology(3, [(0, 1, 0.5), (1, 2, 0.25)])
    got = topo.pair_distances(np.array([0, 2]), np.array([2, 1]))
    assert got.dtype == np.float64
    assert got.tolist() == [0.75, 0.25]


GRID_SHAPES = [(1,), (2,), (7,), (1, 5), (2, 2), (4, 3), (2, 1, 3),
               (3, 2, 2), (4, 4, 2), (5, 1, 4)]


@pytest.mark.parametrize("shape", GRID_SHAPES, ids=str)
@pytest.mark.parametrize("cls", [Mesh, Torus])
@pytest.mark.parametrize("dtype", [np.int32, np.float64])
def test_grid_table_from_axis_tables_equals_pair_matrix(cls, shape, dtype):
    """The broadcast sum of per-axis tables is the row-chunked
    ``pair_distances`` table, on 1- to 3-axis grids with axes of size 1
    and 2, in both dtypes."""
    topology = cls(shape)
    got = topology._build_distance_matrix(np.dtype(dtype))
    want = topology._pair_matrix(np.dtype(dtype))
    assert got.dtype == want.dtype and got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 2, 2), (6, 4, 2)],
                         ids=str)
@pytest.mark.parametrize("cls", [Mesh, Torus])
def test_grouped_grid_table_gathers_representatives(cls, shape):
    """A grouped grid's table, gathered from the root's per-axis tables by
    representative coordinates, equals its ``pair_distances`` table at
    every coarsening level."""
    level, virtual = cls(shape), None
    while level.num_nodes > 1:
        level, _, virtual = coarsen_machine(level, shape=virtual)
        dtype = np.dtype(np.int32)
        np.testing.assert_array_equal(level._build_distance_matrix(dtype),
                                      level._pair_matrix(dtype))


@pytest.mark.parametrize("shape", GRID_SHAPES, ids=str)
@pytest.mark.parametrize("cls", [Mesh, Torus])
def test_grid_distance_is_closed_form(cls, shape, monkeypatch):
    """``distance(a, b)`` on a mesh or torus sums the axis offsets of two
    coordinate tuples: it equals ``pair_distances`` on every pair, with
    axes of size 1, 2 and odd sizes, and reads no row and no table."""
    topology = cls(shape)
    p = topology.num_nodes
    pu, pv = np.divmod(np.arange(p * p), p)
    want = topology.pair_distances(pu, pv).tolist()

    def no_table(*_args):
        raise AssertionError("distance() read a row or a table")

    monkeypatch.setattr(type(topology), "distance_row", no_table)
    monkeypatch.setattr(type(topology), "_build_distance_matrix", no_table)
    got = [topology.distance(a, b) for a, b in zip(pu.tolist(), pv.tolist())]
    assert got == want
    assert all(type(d) is int for d in got)


@pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 2, 2), (6, 4, 2)],
                         ids=str)
@pytest.mark.parametrize("cls", [Mesh, Torus])
def test_axis_row_sums_are_exact(cls, shape):
    """``AxisDistances.row_sums`` of a grid and of each of its grouped
    levels equals the integer row sums of the ``pair_distances`` table,
    over every node and over a subset of the nodes."""
    level, virtual = cls(shape), None
    rng = np.random.default_rng(0)
    while True:
        axes = level.axis_distances()
        table = level._pair_matrix(np.dtype(np.int64))
        np.testing.assert_array_equal(axes.row_sums(), table.sum(axis=1))
        nodes = np.flatnonzero(rng.random(level.num_nodes) < 0.5)
        np.testing.assert_array_equal(
            axes.row_sums(nodes), table[np.ix_(nodes, nodes)].sum(axis=1))
        if level.num_nodes == 1:
            break
        level, _, virtual = coarsen_machine(level, shape=virtual)


def test_grouped_grid_checks_its_virtual_shape():
    """A grouped level of a grid describes itself per axis only on the
    virtual shape its representatives form; any other shape is refused."""
    from repro.exceptions import TopologyError
    from repro.topology import GroupedTopology

    root = Torus((4, 4))
    level, groups, virtual = coarsen_machine(root)
    assert virtual == (2, 4) and level.axis_distances().shape == (2, 4)
    for bad in ((4, 2), (8,), (2, 2, 2), (2, 3)):
        with pytest.raises(TopologyError):
            GroupedTopology(root, groups, bad)
    assert GroupedTopology(root, groups).axis_distances() is None
