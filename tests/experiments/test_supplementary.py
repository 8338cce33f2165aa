"""Tests for the supplementary experiments (zoo, bounds, flowcheck,
tailcheck)."""

from __future__ import annotations

import pytest

from repro.experiments import supplementary
from tests.experiments.pins import check_pinned


class TestZoo:
    @pytest.fixture(scope="class")
    def result(self):
        return supplementary.run_zoo(quick=True, seed=0)

    def test_all_machines_present(self, result):
        machines = result.column("machine")
        assert len(machines) == 5

    def test_topolb_never_loses_to_random(self, result):
        for row in result.rows:
            assert row["topolb"] < row["random"]

    def test_refine_never_hurts(self, result):
        for row in result.rows:
            assert row["topolb+ref"] <= row["topolb"] + 1e-9

    def test_fattree_compresses_gains(self, result):
        rows = {r["machine"]: r for r in result.rows}
        torus_gain = rows["torus 8x8"]["random"] / rows["torus 8x8"]["topolb"]
        ft_gain = rows["fattree 4x3"]["random"] / rows["fattree 4x3"]["topolb"]
        assert torus_gain > 2 * ft_gain

    def test_annealing_beats_heuristics_on_mesh(self, result):
        """The related-work claim: physical optimization out-polishes greedy
        heuristics on instances without a perfect embedding."""
        row = next(r for r in result.rows if r["machine"] == "mesh 8x8")
        assert row["anneal"] < row["topolb"]


class TestBounds:
    @pytest.fixture(scope="class")
    def result(self):
        return supplementary.run_bounds(quick=True, seed=0)

    def test_torus_stencils_certified_optimal(self, result):
        for row in result.rows:
            if "torus" in row["instance"] and "jacobi" in row["instance"]:
                assert row["topolb_gap"] == pytest.approx(1.0)

    def test_gaps_at_least_one(self, result):
        for row in result.rows:
            for key, value in row.items():
                if key.endswith("_gap"):
                    assert value >= 1.0 - 1e-9

    def test_ordering(self, result):
        for row in result.rows:
            assert row["topolb_gap"] <= row["random_gap"]
            assert row["topolb+ref_gap"] <= row["topolb_gap"] + 1e-9


def test_flowcheck_runs_inside_its_validity_envelope(capsys):
    """``repro-experiments flowcheck``: the flow estimator's makespan is a
    lower bound on the DES one and ranks mappings like it does."""
    import json

    from repro.experiments.runner import main

    assert main(["flowcheck", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 4
    for row in rows:
        assert row["max_bound_ratio"] <= 1.0, row
        assert row["rank_corr"] >= 0.9, row


def test_tailcheck_profile_and_topolb_tail(capsys, tmp_path):
    """``repro-experiments tailcheck --profile``: the rows are the pinned
    ones, the profile is a valid ``repro-profile-v1`` document, and on both
    instances TopoLB's p999 latency is below every random placement's."""
    import json

    from repro import obs
    from repro.experiments.runner import main

    path = tmp_path / "tailcheck.json"
    assert main(["tailcheck", "--json", "--profile", str(path)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    check_pinned("tailcheck", rows)
    doc = obs.load_profile(path)  # validates against repro-profile-v1
    assert doc["format"] == "repro-profile-v1"
    instances = {row["instance"] for row in rows}
    assert len(instances) == 2
    for instance in instances:
        p999 = {row["mapper"]: row["p999_us"] for row in rows
                if row["instance"] == instance}
        randoms = [v for k, v in p999.items() if k.startswith("random")]
        assert randoms, instance
        assert p999["topolb"] < min(randoms), instance
