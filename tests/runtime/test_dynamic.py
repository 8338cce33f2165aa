"""Tests for incremental rebalancing and the dynamic LB loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MappingError, TaskGraphError
from repro.mapping import IncrementalRefineLB, Mapping, hop_bytes
from repro.runtime import DriftingWorkload, run_dynamic_lb
from repro.taskgraph import TaskGraph, leanmd_taskgraph, mesh2d_pattern, random_taskgraph
from repro.topology import Mesh, Torus


class TestIncrementalRefineLB:
    def test_restores_balance(self):
        g = TaskGraph(8, [], vertex_weights=np.ones(8))
        topo = Mesh((4,))
        skewed = Mapping(g, topo, [0] * 8)  # everything on one processor
        balanced, moved = IncrementalRefineLB(imbalance_tol=1.10).rebalance(skewed)
        from repro.mapping.metrics import load_imbalance

        assert load_imbalance(g, topo, balanced.assignment) <= 1.10 + 1e-9
        assert moved.sum() >= 6  # had to move most tasks off proc 0

    def test_balanced_input_untouched(self):
        g = mesh2d_pattern(4, 4)
        topo = Torus((4, 4))
        mapping = Mapping(g, topo, np.arange(16))
        out, moved = IncrementalRefineLB().rebalance(mapping)
        assert moved.sum() == 0
        assert (out.assignment == mapping.assignment).all()

    def test_prefers_low_hop_byte_destinations(self):
        """The moved task should land near its communication partners."""
        # Tasks 0..3 overloaded on proc 0; task 3 talks heavily to task 4 on
        # proc 5. Moving 3 should target a processor near proc 5.
        g = TaskGraph(5, [(3, 4, 1e6)], vertex_weights=[1, 1, 1, 1, 1])
        topo = Torus((8,))
        mapping = Mapping(g, topo, [0, 0, 0, 0, 5])
        out, moved = IncrementalRefineLB(imbalance_tol=1.3).rebalance(mapping)
        assert moved.any()
        if moved[3]:
            assert topo.distance(out.assignment[3], 5) <= 2

    def test_never_moves_more_than_needed(self):
        g = TaskGraph(10, [], vertex_weights=np.ones(10))
        topo = Mesh((5,))
        # 3-3-2-1-1: only slightly off; a couple of moves suffice.
        mapping = Mapping(g, topo, [0, 0, 0, 1, 1, 1, 2, 2, 3, 4])
        _, moved = IncrementalRefineLB(imbalance_tol=1.25).rebalance(mapping)
        assert moved.sum() <= 2

    def test_giant_task_left_alone(self):
        g = TaskGraph(3, [], vertex_weights=[100.0, 1.0, 1.0])
        topo = Mesh((3,))
        mapping = Mapping(g, topo, [0, 1, 2])
        out, moved = IncrementalRefineLB().rebalance(mapping)
        assert moved.sum() == 0

    def test_bad_tol(self):
        with pytest.raises(MappingError):
            IncrementalRefineLB(imbalance_tol=0.5)


class TestDriftingWorkload:
    def test_structure_stable_loads_drift(self):
        base = random_taskgraph(20, edge_prob=0.2, seed=0)
        wl = DriftingWorkload(base, drift_sigma=0.2, seed=1)
        g1, g2 = wl.advance(), wl.advance()
        assert list(g1.edges()) == list(base.edges())
        assert not np.allclose(g1.vertex_weights, g2.vertex_weights)

    def test_band_clipping(self):
        base = TaskGraph(4, [], vertex_weights=np.ones(4))
        wl = DriftingWorkload(base, drift_sigma=2.0, band=2.0, seed=0)
        for _ in range(30):
            g = wl.advance()
            assert (g.vertex_weights <= 2.0 + 1e-9).all()
            assert (g.vertex_weights >= 0.5 - 1e-9).all()

    def test_zero_sigma_is_static(self):
        base = random_taskgraph(10, seed=2)
        wl = DriftingWorkload(base, drift_sigma=0.0, seed=0)
        g = wl.advance()
        assert np.allclose(g.vertex_weights, base.vertex_weights)

    def test_validation(self):
        base = random_taskgraph(5, seed=0)
        with pytest.raises(TaskGraphError):
            DriftingWorkload(base, drift_sigma=-1)
        with pytest.raises(TaskGraphError):
            DriftingWorkload(base, band=0.5)


class TestRunDynamicLB:
    def test_trajectory_shape(self):
        base = leanmd_taskgraph(8, cells_shape=(3, 3, 3))
        wl = DriftingWorkload(base, seed=0)
        reports = run_dynamic_lb(wl, Torus((2, 4)), "incremental",
                                 steps=6, lb_period=3)
        assert len(reports) == 6
        assert [r.balanced for r in reports] == [True, False, False, True, False, False]

    def test_balancing_reduces_imbalance(self):
        base = leanmd_taskgraph(8, cells_shape=(3, 3, 3))
        wl = DriftingWorkload(base, drift_sigma=0.3, seed=1)
        reports = run_dynamic_lb(wl, Torus((2, 4)), "incremental",
                                 steps=12, lb_period=4, imbalance_tol=1.15)
        balanced_imb = np.mean([r.imbalance for r in reports if r.balanced])
        # Imbalance right after balancing is kept near the tolerance.
        assert balanced_imb <= 1.4

    def test_incremental_migrates_less_than_full(self):
        base = leanmd_taskgraph(8, cells_shape=(3, 3, 3))
        topo = Torus((2, 4))
        out = {}
        for balancer in ("incremental", "full:TopoLB"):
            wl = DriftingWorkload(base, drift_sigma=0.15, seed=0)
            reports = run_dynamic_lb(wl, topo, balancer, steps=9, lb_period=3)
            out[balancer] = sum(r.migration_bytes for r in reports)
        assert out["incremental"] < 0.25 * out["full:TopoLB"]

    def test_full_topolb_wins_on_hop_bytes(self):
        base = leanmd_taskgraph(8, cells_shape=(3, 3, 3))
        topo = Torus((2, 4))
        out = {}
        for balancer in ("incremental", "full:TopoLB"):
            wl = DriftingWorkload(base, drift_sigma=0.15, seed=0)
            reports = run_dynamic_lb(wl, topo, balancer, steps=9, lb_period=3)
            out[balancer] = np.mean([r.hop_bytes for r in reports])
        assert out["full:TopoLB"] < out["incremental"]

    def test_bad_balancer_name(self):
        base = random_taskgraph(8, seed=0)
        wl = DriftingWorkload(base, seed=0)
        with pytest.raises(MappingError, match="balancer"):
            run_dynamic_lb(wl, Torus((4,)), "magic", steps=2)

    def test_per_task_state_bytes(self):
        base = TaskGraph(8, [], vertex_weights=np.ones(8))
        wl = DriftingWorkload(base, drift_sigma=0.0, seed=0)
        state = np.arange(8, dtype=np.float64) * 100
        reports = run_dynamic_lb(wl, Mesh((2,)), "full:RandomLB", steps=2,
                                 lb_period=1, state_bytes_per_task=state)
        for r in reports:
            assert r.migration_bytes <= state.sum()
