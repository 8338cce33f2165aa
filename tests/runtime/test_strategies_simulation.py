"""The Charm++ strategy aliases and the +LBSim-style replay, on the engine.

A load scenario dumped once (``+LBDump``) is replayed under any strategy
(``+LBSim``) by one ``MappingRequest(graph="lbdump:<path>", ...)`` each.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import MappingEngine, MappingRequest
from repro.engine.specs import STRATEGY_SPECS, mapper_from_spec
from repro.exceptions import SpecError
from repro.runtime import LBDatabase
from repro.taskgraph import leanmd_taskgraph, mesh2d_pattern, random_taskgraph


def _dump(graph, path):
    """Dump ``graph`` as an LB database; return its graph spec."""
    LBDatabase.from_taskgraph(graph).dump(path)
    return f"lbdump:{path}"


def _replay(graph_spec, topology, strategy, seed=0):
    return MappingEngine().run(MappingRequest(
        graph=graph_spec, topology=topology, mapper=strategy, seed=seed,
    ))


class TestRegistry:
    def test_all_names_instantiate(self):
        for name in STRATEGY_SPECS:
            assert mapper_from_spec(name, seed=0) is not None

    def test_unknown_name(self, tmp_path):
        spec = _dump(mesh2d_pattern(2, 2), tmp_path / "d.json")
        with pytest.raises(SpecError, match="unknown strategy"):
            _replay(spec, "torus:2x2", "MagicLB")

    @pytest.mark.parametrize("name", sorted(STRATEGY_SPECS))
    def test_strategies_produce_valid_placement(self, name, tmp_path):
        spec = _dump(random_taskgraph(20, edge_prob=0.2, seed=1),
                     tmp_path / "d.json")
        placement = _replay(spec, "torus:2x4", name).assignment
        assert placement.shape == (20,)
        assert placement.min() >= 0 and placement.max() < 8
        # every processor used
        assert len(np.unique(placement)) == 8

    def test_equal_sizes_direct_mapping(self, tmp_path):
        spec = _dump(mesh2d_pattern(4, 4), tmp_path / "d.json")
        placement = _replay(spec, "torus:4x4", "TopoLB").assignment
        assert sorted(placement.tolist()) == list(range(16))


class TestSimulateStrategy:
    def test_report_fields(self, tmp_path):
        spec = _dump(mesh2d_pattern(4, 4), tmp_path / "d.json")
        result = _replay(spec, "torus:4x4", "TopoLB")
        assert result.metrics["hops_per_byte"] == pytest.approx(1.0)
        assert result.metadata["num_objects"] == 16
        assert result.metrics["load_imbalance"] == pytest.approx(1.0)
        assert result.metrics["max_dilation"] == 1.0
        assert "group_hops_per_byte" in result.metrics

    def test_replay_from_dump_file(self, tmp_path):
        spec = _dump(leanmd_taskgraph(8, cells_shape=(3, 3, 3)),
                     tmp_path / "d.json")
        assert _replay(spec, "torus:2x4", "TopoCentLB").metrics["hop_bytes"] > 0

    def test_same_dump_same_result(self, tmp_path):
        """Section 5.1's point: replay is deterministic on a fixed scenario."""
        spec = _dump(leanmd_taskgraph(8, cells_shape=(3, 3, 3)),
                     tmp_path / "d.json")
        r1 = _replay(spec, "torus:2x4", "TopoLB", seed=0)
        r2 = _replay(spec, "torus:2x4", "TopoLB", seed=0)
        assert r1.metrics == r2.metrics
        assert np.array_equal(r1.assignment, r2.assignment)

    def test_compare_strategies_ordering(self, tmp_path):
        """On the LeanMD scenario the topology-aware strategies must beat
        random placement on (group) hops-per-byte — the Figure 5 ordering."""
        spec = _dump(leanmd_taskgraph(16, cells_shape=(4, 4, 4)),
                     tmp_path / "d.json")
        ghpb = {
            name: _replay(spec, "torus:4x4", name).metrics["group_hops_per_byte"]
            for name in ("RandomLB", "TopoCentLB", "TopoLB", "RefineTopoLB")
        }
        assert ghpb["TopoLB"] < ghpb["RandomLB"]
        assert ghpb["TopoCentLB"] < ghpb["RandomLB"]
        assert ghpb["RefineTopoLB"] <= ghpb["TopoLB"] + 1e-9

    def test_greedylb_balances_but_ignores_topology(self, tmp_path):
        spec = _dump(leanmd_taskgraph(8, cells_shape=(3, 3, 3)),
                     tmp_path / "d.json")
        greedy = _replay(spec, "torus:2x4", "GreedyLB").metrics
        topolb = _replay(spec, "torus:2x4", "TopoLB").metrics
        assert greedy["load_imbalance"] < 1.2
        assert topolb["hop_bytes"] < greedy["hop_bytes"]
