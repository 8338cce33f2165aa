"""Determinism contracts of TopoLB.

The stable tie-break documented at ``topolb.py`` (reserve ``rebuild`` uses a
*stable* argsort, breaking fest-value ties by lowest processor id) is what
makes the mapper reproducible: on symmetric instances huge tie classes arise
and the tie-break decides the growth pattern. These tests pin down that
repeated runs of the same configured mapper give bit-identical placements.
"""

from __future__ import annotations

import pytest

from repro import EstimatorOrder, Mesh, TopoLB, Torus, mesh2d_pattern, ring_pattern

#: Small symmetric instances: (task pattern, machine).
_INSTANCES = [
    pytest.param(mesh2d_pattern(4, 4, message_bytes=256), Torus((4, 4)),
                 id="mesh4x4-on-torus4x4"),
    pytest.param(mesh2d_pattern(4, 4, message_bytes=256), Mesh((4, 4)),
                 id="mesh4x4-on-mesh4x4"),
    pytest.param(mesh2d_pattern(3, 3, message_bytes=100), Mesh((3, 3)),
                 id="mesh3x3-on-mesh3x3"),
    pytest.param(ring_pattern(8, message_bytes=512), Torus((2, 4)),
                 id="ring8-on-torus2x4"),
]

class TestRepeatedRuns:
    @pytest.mark.parametrize("graph,topo", _INSTANCES)
    def test_same_mapper_instance_is_deterministic(self, graph, topo):
        mapper = TopoLB()
        first = mapper.map(graph, topo).assignment
        second = mapper.map(graph, topo).assignment
        assert (first == second).all()

    @pytest.mark.parametrize("order",
                             [EstimatorOrder.FIRST, EstimatorOrder.SECOND,
                              EstimatorOrder.THIRD])
    def test_fresh_mapper_instances_agree(self, order):
        graph, topo = mesh2d_pattern(4, 4, message_bytes=256), Torus((4, 4))
        runs = [TopoLB(order=order).map(graph, topo).assignment for _ in range(3)]
        assert (runs[0] == runs[1]).all()
        assert (runs[0] == runs[2]).all()

    def test_determinism_survives_profiling(self):
        """Instrumentation must never perturb placement decisions."""
        from repro import obs

        graph, topo = mesh2d_pattern(4, 4, message_bytes=256), Torus((4, 4))
        plain = TopoLB().map(graph, topo).assignment
        with obs.profiled():
            profiled = TopoLB().map(graph, topo).assignment
        assert (plain == profiled).all()
