"""Mapping onto degraded machines: the allowed-processor mask end to end.

The acceptance scenario of the fault-tolerance work: an 8x8 torus with 5%
dead nodes plus one dead link, and all three paper mappers must place n
tasks on the p' < p healthy processors only — deterministically, and with
honest capacity errors when the healthy machine is too small.
"""

import numpy as np
import pytest

from repro.exceptions import MappingError
from repro.faults import DegradedTopology, FaultSet
from repro.mapping import RandomMapper, RefineTopoLB, TopoCentLB, TopoLB
from repro.mapping.base import resolve_allowed
from repro.mapping.metrics import hop_bytes
from repro.taskgraph import random_taskgraph
from repro.topology import Torus


@pytest.fixture(scope="module")
def degraded():
    base = Torus((8, 8))
    faults = FaultSet.generate(base, seed=3, node_rate=0.05)
    faults = FaultSet(
        dead_nodes=faults.dead_nodes,
        dead_links=[*faults.dead_links, (0, 1)],
    )
    return DegradedTopology(base, faults)


def _mappers():
    return [
        ("TopoLB", TopoLB()),
        ("TopoCentLB", TopoCentLB()),
        ("RefineTopoLB", RefineTopoLB(base=TopoLB())),
    ]


class TestDegradedMapping:
    @pytest.mark.parametrize("name,mapper", _mappers(), ids=lambda v: v if isinstance(v, str) else "")
    def test_all_tasks_on_healthy_processors(self, degraded, name, mapper):
        graph = random_taskgraph(degraded.num_healthy, edge_prob=0.2, seed=1)
        mapping = mapper.map(graph, degraded)
        assign = np.asarray(mapping.assignment)
        assert degraded.allowed_mask()[assign].all(), name
        # injective over the healthy set: one task per surviving processor
        assert len(np.unique(assign)) == graph.num_tasks

    @pytest.mark.parametrize("name,mapper", _mappers(), ids=lambda v: v if isinstance(v, str) else "")
    def test_deterministic(self, degraded, name, mapper):
        graph = random_taskgraph(degraded.num_healthy, edge_prob=0.2, seed=1)
        a = np.asarray(mapper.map(graph, degraded).assignment)
        b = np.asarray(mapper.map(graph, degraded).assignment)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name,mapper", _mappers(), ids=lambda v: v if isinstance(v, str) else "")
    def test_insufficient_capacity_raises(self, degraded, name, mapper):
        graph = random_taskgraph(degraded.num_nodes, edge_prob=0.2, seed=1)
        with pytest.raises(MappingError, match="healthy capacity"):
            mapper.map(graph, degraded)

    def test_underfull_machine_accepted(self, degraded):
        graph = random_taskgraph(degraded.num_healthy - 5, edge_prob=0.2, seed=2)
        mapping = TopoLB().map(graph, degraded)
        assert degraded.allowed_mask()[mapping.assignment].all()

    def test_two_phase_underfull_on_degraded(self, degraded):
        """Fewer tasks than healthy processors through the full pipeline
        (the repro-map CLI path): phase 1 degenerates to the identity and
        the masked mapper places each task directly."""
        from repro.mapping.pipeline import TwoPhaseMapper

        graph = random_taskgraph(degraded.num_healthy - 4, edge_prob=0.2, seed=3)
        mapping = TwoPhaseMapper().map(graph, degraded)
        assert degraded.allowed_mask()[mapping.assignment].all()
        assert len(np.unique(mapping.assignment)) == graph.num_tasks

    def test_explicit_mask_on_pristine_topology(self):
        topo = Torus((4, 4))
        allowed = np.ones(16, dtype=bool)
        allowed[[3, 7]] = False
        graph = random_taskgraph(14, edge_prob=0.3, seed=5)
        mapping = TopoLB().map(graph, topo, allowed=allowed)
        assert allowed[mapping.assignment].all()

    def test_topology_aware_beats_random_on_degraded(self, degraded):
        graph = random_taskgraph(degraded.num_healthy, edge_prob=0.2, seed=7)
        topolb = TopoLB().map(graph, degraded)
        rnd = RandomMapper(seed=0).map(graph, degraded)
        assert degraded.allowed_mask()[rnd.assignment].all()
        assert (
            hop_bytes(graph, degraded, topolb.assignment)
            < hop_bytes(graph, degraded, rnd.assignment)
        )

    def test_refine_rejects_start_on_dead_processor(self, degraded):
        graph = random_taskgraph(degraded.num_healthy, edge_prob=0.2, seed=1)
        base = TopoLB().map(graph, degraded)
        bad = base.with_assignment(
            np.where(
                np.arange(graph.num_tasks) == 0,
                degraded.faults.dead_nodes[0],
                base.assignment,
            )
        )
        with pytest.raises(MappingError, match="disallowed"):
            RefineTopoLB().refine(bad)

    def test_mappers_on_a_spec_built_degraded_torus(self):
        """A spec-built degraded 8x8 torus: each paper mapper places every
        task on a healthy node."""
        from repro.topology import topology_from_spec

        deg = topology_from_spec(
            "degraded:torus:8x8;seed=3;nodes=0.05;links=0.02")
        graph = random_taskgraph(deg.num_healthy, edge_prob=0.1, seed=0)
        allowed = deg.allowed_mask()
        for name, mapper in _mappers():
            assert allowed[mapper.map(graph, deg).assignment].all(), name


class TestResolveAllowed:
    def test_none_on_pristine_is_none(self):
        assert resolve_allowed(Torus((4, 4)), None) is None

    def test_auto_derived_on_degraded(self, degraded):
        mask = resolve_allowed(degraded, None)
        np.testing.assert_array_equal(mask, degraded.allowed_mask())

    def test_bad_shape_rejected(self):
        with pytest.raises(MappingError):
            resolve_allowed(Torus((4, 4)), np.ones(9, dtype=bool))

    def test_empty_mask_rejected(self):
        with pytest.raises(MappingError):
            resolve_allowed(Torus((4, 4)), np.zeros(16, dtype=bool))
