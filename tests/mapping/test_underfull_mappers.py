"""Direct placement of fewer tasks than processors (n < p).

TopoLB (every estimator order), TopoCentLB, RandomMapper and RefineTopoLB
place any n <= p tasks one per processor on a pristine machine; n > p still
asks for partitioning first, and the n == p mappers refuse n < p.
"""

import numpy as np
import pytest

from repro.exceptions import MappingError
from repro.mapping import (
    IdentityMapper,
    RandomMapper,
    RefineTopoLB,
    TopoCentLB,
    TopoLB,
)
from repro.mapping.metrics import hop_bytes
from repro.taskgraph import random_taskgraph
from repro.topology import Torus

TOPO = Torus((8, 8))


def _mappers():
    return [
        ("TopoLB1", TopoLB(order=1)),
        ("TopoLB2", TopoLB(order=2)),
        ("TopoLB3", TopoLB(order=3)),
        ("TopoCentLB", TopoCentLB()),
        ("RandomLB", RandomMapper(seed=0)),
        ("RefineTopoLB", RefineTopoLB(base=TopoLB())),
    ]


_ids = lambda v: v if isinstance(v, str) else ""  # noqa: E731


@pytest.mark.parametrize("name,mapper", _mappers(), ids=_ids)
def test_underfull_placed_injectively(name, mapper):
    graph = random_taskgraph(58, edge_prob=0.2, seed=1)
    assign = np.asarray(mapper.map(graph, TOPO).assignment)
    assert assign.min() >= 0 and assign.max() < TOPO.num_nodes
    assert len(np.unique(assign)) == graph.num_tasks, name


def test_underfull_machine_accepted():
    """The default TopoLB places five tasks fewer than processors."""
    graph = random_taskgraph(TOPO.num_nodes - 5, edge_prob=0.2, seed=2)
    assign = np.asarray(TopoLB().map(graph, TOPO).assignment)
    assert assign.min() >= 0 and assign.max() < TOPO.num_nodes
    assert len(np.unique(assign)) == graph.num_tasks


@pytest.mark.parametrize("name,mapper", _mappers(), ids=_ids)
def test_underfull_deterministic(name, mapper):
    graph = random_taskgraph(58, edge_prob=0.2, seed=1)
    a = mapper.map(graph, TOPO).assignment
    b = mapper.map(graph, TOPO).assignment
    np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("name,mapper", _mappers(), ids=_ids)
def test_more_tasks_than_processors_raises(name, mapper):
    graph = random_taskgraph(TOPO.num_nodes + 1, edge_prob=0.2, seed=1)
    with pytest.raises(MappingError, match="partition"):
        mapper.map(graph, TOPO)


def test_bijective_only_mapper_rejects_underfull():
    graph = random_taskgraph(60, edge_prob=0.2, seed=1)
    with pytest.raises(MappingError, match="partition"):
        IdentityMapper().map(graph, TOPO)


def test_random_underfull_is_a_permutation_prefix():
    """n < p takes the first n of a permutation of all p processors, which
    is the plain permutation when n == p."""
    p = TOPO.num_nodes
    for n in (p - 9, p):
        got = RandomMapper(seed=4).map(random_taskgraph(n, seed=2), TOPO)
        want = np.random.default_rng(4).permutation(p)[:n]
        np.testing.assert_array_equal(got.assignment, want)


def test_topology_aware_beats_random_underfull():
    graph = random_taskgraph(55, edge_prob=0.2, seed=7)
    topolb = TopoLB().map(graph, TOPO)
    rnd = RandomMapper(seed=0).map(graph, TOPO)
    assert (hop_bytes(graph, TOPO, topolb.assignment)
            < hop_bytes(graph, TOPO, rnd.assignment))


def test_refine_keeps_the_occupied_processors():
    graph = random_taskgraph(50, edge_prob=0.2, seed=3)
    start = RandomMapper(seed=5).map(graph, TOPO)
    refined = RefineTopoLB(seed=0).refine(start)
    assert set(refined.assignment) == set(start.assignment)
    assert refined.hop_bytes <= start.hop_bytes


def test_refine_rejects_a_shared_processor():
    graph = random_taskgraph(50, edge_prob=0.2, seed=3)
    start = RandomMapper(seed=5).map(graph, TOPO)
    shared = np.array(start.assignment)
    shared[1] = shared[0]
    with pytest.raises(MappingError, match="injective"):
        RefineTopoLB().refine(start.with_assignment(shared))
