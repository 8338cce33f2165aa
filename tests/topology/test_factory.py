"""Tests for the topology spec parser."""

from __future__ import annotations

import pytest

from repro.exceptions import SpecError
from repro.topology import FatTree, Hypercube, Mesh, Torus, topology_from_spec


class TestFactory:
    def test_mesh(self):
        topo = topology_from_spec("mesh:8x8")
        assert isinstance(topo, Mesh)
        assert topo.shape == (8, 8)

    def test_torus_3d(self):
        topo = topology_from_spec("torus:4x4x4")
        assert isinstance(topo, Torus)
        assert topo.shape == (4, 4, 4)

    def test_hypercube(self):
        topo = topology_from_spec("hypercube:6")
        assert isinstance(topo, Hypercube)
        assert topo.num_nodes == 64

    def test_fattree(self):
        topo = topology_from_spec("fattree:4x2")
        assert isinstance(topo, FatTree)
        assert topo.num_nodes == 16

    def test_case_and_whitespace(self):
        assert isinstance(topology_from_spec("Torus: 4x4 "), Torus)

    @pytest.mark.parametrize(
        "bad",
        ["torus", "mesh:", "mesh:axb", "hypercube:x", "fattree:4", "ring:5",
         "degraded:torus:8x8"],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(SpecError):
            topology_from_spec(bad)

    def test_invalid_shape_surfaces_topology_error(self):
        # Parseable spec, invalid machine: the domain error propagates
        # (still a ReproError subclass for blanket handling).
        from repro.exceptions import ReproError, TopologyError

        with pytest.raises(TopologyError):
            topology_from_spec("torus:4x0")
        with pytest.raises(ReproError):
            topology_from_spec("torus:4x0")
