"""Tests for the strategy registry and the +LBSim-style replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.specs import STRATEGY_SPECS, mapper_from_spec
from repro.exceptions import SpecError
from repro.runtime import LBDatabase, compare_strategies, simulate_strategy
from repro.taskgraph import leanmd_taskgraph, mesh2d_pattern, random_taskgraph
from repro.topology import Torus


def _placement(name, db, topology, seed=0):
    """Map a load database's task graph with a registry strategy."""
    mapper = mapper_from_spec(name, seed)
    return mapper.map(db.to_taskgraph(), topology).assignment


class TestRegistry:
    def test_all_names_instantiate(self):
        for name in STRATEGY_SPECS:
            assert mapper_from_spec(name, seed=0) is not None

    def test_unknown_name(self):
        with pytest.raises(SpecError, match="unknown strategy"):
            mapper_from_spec("MagicLB")

    @pytest.mark.parametrize("name", sorted(STRATEGY_SPECS))
    def test_strategies_produce_valid_placement(self, name):
        g = random_taskgraph(20, edge_prob=0.2, seed=1)
        db = LBDatabase.from_taskgraph(g)
        topo = Torus((2, 4))
        placement = _placement(name, db, topo)
        assert placement.shape == (20,)
        assert placement.min() >= 0 and placement.max() < 8
        # every processor used
        assert len(np.unique(placement)) == 8

    def test_equal_sizes_direct_mapping(self):
        g = mesh2d_pattern(4, 4)
        db = LBDatabase.from_taskgraph(g)
        placement = _placement("TopoLB", db, Torus((4, 4)))
        assert sorted(placement.tolist()) == list(range(16))


class TestSimulateStrategy:
    def test_report_fields(self):
        g = mesh2d_pattern(4, 4)
        db = LBDatabase.from_taskgraph(g)
        report = simulate_strategy(db, Torus((4, 4)), "TopoLB")
        assert report["hops_per_byte"] == pytest.approx(1.0)
        assert report["num_objects"] == 16
        assert report["load_imbalance"] == pytest.approx(1.0)
        assert report["max_dilation"] == 1.0
        assert "group_hops_per_byte" in report

    def test_replay_from_dump_file(self, tmp_path):
        g = leanmd_taskgraph(8, cells_shape=(3, 3, 3))
        LBDatabase.from_taskgraph(g).dump(tmp_path / "d.json")
        report = simulate_strategy(tmp_path / "d.json", Torus((2, 4)), "TopoCentLB")
        assert report["hop_bytes"] > 0

    def test_same_dump_same_result(self, tmp_path):
        """Section 5.1's point: replay is deterministic on a fixed scenario."""
        g = leanmd_taskgraph(8, cells_shape=(3, 3, 3))
        db = LBDatabase.from_taskgraph(g)
        r1 = simulate_strategy(db, Torus((2, 4)), "TopoLB", seed=0)
        r2 = simulate_strategy(db, Torus((2, 4)), "TopoLB", seed=0)
        assert r1 == r2

    def test_compare_strategies_ordering(self):
        """On the LeanMD scenario the topology-aware strategies must beat
        random placement on (group) hops-per-byte — the Figure 5 ordering."""
        g = leanmd_taskgraph(16, cells_shape=(4, 4, 4))
        db = LBDatabase.from_taskgraph(g)
        topo = Torus((4, 4))
        reports = {
            r["strategy"]: r
            for r in compare_strategies(
                db, topo, ["RandomLB", "TopoCentLB", "TopoLB", "RefineTopoLB"], seed=0
            )
        }
        rand = reports["RandomLB"]["group_hops_per_byte"]
        assert reports["TopoLB"]["group_hops_per_byte"] < rand
        assert reports["TopoCentLB"]["group_hops_per_byte"] < rand
        assert (
            reports["RefineTopoLB"]["group_hops_per_byte"]
            <= reports["TopoLB"]["group_hops_per_byte"] + 1e-9
        )

    def test_greedylb_balances_but_ignores_topology(self):
        g = leanmd_taskgraph(8, cells_shape=(3, 3, 3))
        db = LBDatabase.from_taskgraph(g)
        topo = Torus((2, 4))
        greedy = simulate_strategy(db, topo, "GreedyLB", seed=0)
        topolb = simulate_strategy(db, topo, "TopoLB", seed=0)
        assert greedy["load_imbalance"] < 1.2
        assert topolb["hop_bytes"] < greedy["hop_bytes"]
