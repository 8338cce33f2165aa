"""Shape tests: every experiment must reproduce its paper's qualitative claims.

These run shrunken quick configurations (patched sweeps) so the whole file
stays in tens of seconds; the benchmark suite runs the full quick configs.
Each figure and table test also checks its full rows against the pins in
``tests/golden/experiments.json`` (see ``tests/experiments/pins.py``).
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import fig05_06, table1
from tests.experiments.pins import check_pinned, run_pinned


class TestTable1Shape:
    def test_ratio_grows_and_exceeds_two(self):
        result = run_pinned("table1")
        check_pinned("table1", result.rows)
        ratios = result.column("ratio")
        # monotone non-decreasing (tiny tolerance for extrapolation noise)
        assert all(b >= a - 0.05 for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] < 2.0          # 1KB: modest gap
        assert all(r > 2.0 for r in ratios[2:])  # >= 100KB: contention-bound
        # optimal is always faster
        assert all(
            r["optimal_ms"] < r["random_ms"] for r in result.rows
        )


class TestFig12Shape:
    def test_random_tracks_analytic_and_topolb_optimal(self):
        result = run_pinned("fig1_2")
        check_pinned("fig1_2", result.rows)
        for row in result.rows:
            assert row["random"] == pytest.approx(row["E_random"], rel=0.15)
            assert row["topolb"] == pytest.approx(1.0, abs=0.05)
            assert row["topolb"] <= row["topocentlb"]
            assert row["topocentlb"] < row["random"] / 2


class TestFig34Shape:
    def test_embeddable_case_and_ordering(self):
        result = run_pinned("fig3_4")
        check_pinned("fig3_4", result.rows)
        rows = {r["processors"]: r for r in result.rows}
        # (8,8) mesh embeds into (4,4,4): TopoLB finds the optimum.
        assert rows[64]["topolb"] == pytest.approx(1.0, abs=0.05)
        for row in result.rows:
            assert row["random"] == pytest.approx(row["E_random"], rel=0.15)
            assert row["topolb"] <= row["topocentlb"]
            assert row["topocentlb"] < row["random"]


class TestFig56Shape:
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_ordering_and_refine_gain(self, ndim):
        exp_id = "fig5" if ndim == 2 else "fig6"
        result = run_pinned(exp_id)
        check_pinned(exp_id, result.rows)
        for row in result.rows:
            assert row["topolb"] < row["random"]
            assert row["topocentlb"] < row["random"]
            assert row["refine_topolb"] <= row["topolb"] + 1e-9
        # Larger machines leave more room for the mapper (sparser quotient).
        gains = result.column("topolb_vs_random_pct")
        assert gains[-1] > gains[0]

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OpenBLAS core types name x86-64 kernels")
    def test_pinned_rows_hold_under_another_blas_kernel(self):
        """The rows do not depend on which dot kernel the host's BLAS
        picks (docs/VALIDATION.md, "Results do not depend on the host")."""
        root = Path(__file__).resolve().parents[2]
        code = ("from tests.experiments.pins import check_pinned, run_pinned\n"
                "for exp_id in ('fig5', 'fig6'):\n"
                "    check_pinned(exp_id, run_pinned(exp_id).rows)\n")
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
               "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_dense_small_case_hard_for_everyone(self, monkeypatch):
        monkeypatch.setattr(fig05_06, "QUICK_P_2D", (18,))
        result = fig05_06.run(quick=True, ndim=2)
        row = result.rows[0]
        assert row["virt_ratio"] > 150  # the paper's 180 regime
        # No strategy gets more than ~half off in the dense regime.
        assert row["topolb_vs_random_pct"] < 50


class TestFig789Shape:
    def test_latency_ordering_and_blowup(self):
        result = run_pinned("fig7_8")
        check_pinned("fig7_8", result.rows)
        for row in result.rows:
            assert row["TopoLB_latency_us"] < row["TopoCentLB_latency_us"]
            assert row["TopoCentLB_latency_us"] < row["GreedyLB_latency_us"]
        # Random blows up the most as bandwidth shrinks.
        low, high = result.rows[0], result.rows[-1]
        random_growth = low["GreedyLB_latency_us"] / high["GreedyLB_latency_us"]
        topolb_growth = low["TopoLB_latency_us"] / high["TopoLB_latency_us"]
        assert random_growth > 1.0
        assert low["GreedyLB_latency_us"] - high["GreedyLB_latency_us"] > (
            low["TopoLB_latency_us"] - high["TopoLB_latency_us"]
        )

    def test_completion_time_ordering(self):
        result = run_pinned("fig9")
        check_pinned("fig9", result.rows)
        for row in result.rows:
            assert row["random_over_topolb"] > 2.0  # paper: more than double
            assert row["cent_over_topolb"] > 1.0    # TopoLB beats TopoCentLB


class TestFig1011Shape:
    def test_torus_beats_mesh_random_hurt_most(self):
        result = run_pinned("fig10_11")
        check_pinned("fig10_11", result.rows)
        row = result.rows[0]
        # Topology-aware beats random on both networks.
        assert row["torus_TopoLB_s"] < row["torus_GreedyLB_s"]
        assert row["mesh_TopoLB_s"] < row["mesh_GreedyLB_s"]
        # Mesh (no wraparound) is slower, and random suffers the most.
        assert row["mesh_GreedyLB_s"] > row["torus_GreedyLB_s"]
        random_penalty = row["mesh_GreedyLB_s"] / row["torus_GreedyLB_s"]
        topolb_penalty = row["mesh_TopoLB_s"] / row["torus_TopoLB_s"]
        assert random_penalty > 1.0


class TestDeterminism:
    def test_same_seed_same_rows(self):
        a = table1.run(quick=True, side=3, iterations=5)
        b = table1.run(quick=True, side=3, iterations=5)
        assert a.rows == b.rows
