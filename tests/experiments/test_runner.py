"""Tests for the experiments CLI."""

from __future__ import annotations

import json

import pytest

from repro.experiments import runner


class TestRunnerCli:
    def test_lists_all_experiments(self):
        assert set(runner.PAPER_EXPERIMENTS) == {
            "table1", "fig1_2", "fig3_4", "fig5", "fig6",
            "fig7_8", "fig9", "fig10_11",
        }
        assert set(runner.EXPERIMENTS) == set(runner.PAPER_EXPERIMENTS) | {
            "zoo", "bounds", "flowcheck", "tailcheck",
        }

    def test_runs_one_experiment(self, capsys, monkeypatch):
        from repro.experiments import fig01_02

        monkeypatch.setattr(fig01_02, "QUICK_SIDES", (4,))
        assert runner.main(["fig1_2"]) == 0
        out = capsys.readouterr().out
        assert "fig1_2" in out
        assert "topolb" in out

    def test_json_output(self, capsys, monkeypatch):
        from repro.experiments import fig01_02

        monkeypatch.setattr(fig01_02, "QUICK_SIDES", (4,))
        runner.main(["fig1_2", "--json"])
        out = capsys.readouterr().out.strip()
        data = json.loads(out)
        assert data["experiment_id"] == "fig1_2"

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["fig99"])

    def test_seed_flag(self, capsys, monkeypatch):
        from repro.experiments import fig01_02

        monkeypatch.setattr(fig01_02, "QUICK_SIDES", (4,))
        assert runner.main(["fig1_2", "--seed", "7"]) == 0

    def test_profile_flag_writes_artifact(self, tmp_path, capsys, monkeypatch):
        from repro import obs
        from repro.experiments import fig01_02

        monkeypatch.setattr(fig01_02, "QUICK_SIDES", (4,))
        prof_file = tmp_path / "prof.json"
        assert runner.main(["fig1_2", "--profile", str(prof_file)]) == 0
        assert "profile written" in capsys.readouterr().err

        doc = obs.load_profile(prof_file)  # schema-validated
        assert "experiment.fig1_2" in doc["timers"]
        assert "topolb.map" in doc["timers"]
        assert doc["counters"]["topolb.cycles"] > 0
        assert doc["context"]["experiments"] == ["fig1_2"]
        assert obs.active() is None  # runner restored the disabled state

    def test_netsim_mode_flag_is_gone(self, capsys):
        # fig7_8 and fig9 always replay through the DES.
        with pytest.raises(SystemExit) as exit_:
            runner.main(["fig7_8", "--netsim-mode", "flow"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --netsim-mode" in (
            capsys.readouterr().err)

    def test_rejects_jobs_below_one(self):
        with pytest.raises(SystemExit):
            runner.main(["all", "--jobs", "0"])


class TestParallelRunner:
    """``--jobs N``: a parallel "all" run must produce the same merged
    telemetry as a serial one (wall times aside)."""

    @pytest.fixture(autouse=True)
    def _quick_registry(self, monkeypatch):
        # Two cheap experiments stand in for the full registry. Linux uses
        # the fork start method, so worker processes inherit every
        # monkeypatched attribute below.
        from repro.experiments import fig01_02, fig05_06

        monkeypatch.setattr(fig01_02, "QUICK_SIDES", (4,))
        monkeypatch.setattr(fig05_06, "QUICK_P_2D", (9,))
        monkeypatch.setattr(
            runner, "PAPER_EXPERIMENTS",
            {k: runner.EXPERIMENTS[k] for k in ("fig1_2", "fig5")},
        )

    def test_jobs_two_matches_serial_profile(self, tmp_path, capsys):
        from repro import obs

        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert runner.main(["all", "--profile", str(serial_path)]) == 0
        serial_out = capsys.readouterr().out
        assert runner.main(
            ["all", "--jobs", "2", "--profile", str(parallel_path)]) == 0
        parallel_out = capsys.readouterr().out

        # Reports are printed in submission order, so the text matches too.
        assert parallel_out == serial_out

        serial = obs.load_profile(serial_path)
        parallel = obs.load_profile(parallel_path)
        assert parallel["context"]["jobs"] == 2
        assert serial["context"]["jobs"] == 1
        assert parallel["context"]["experiments"] == ["fig1_2", "fig5"]
        # Deterministic work → identical merged counters; timers cover the
        # same phases (their durations differ, so compare keys only). The
        # topology.cache hit/miss split depends on process layout (forked
        # workers inherit the parent's warm cache), so it is excluded.
        def algo_counters(doc):
            return {k: v for k, v in doc["counters"].items()
                    if not k.startswith("topology.cache.")}

        assert algo_counters(parallel) == algo_counters(serial)
        assert set(parallel["timers"]) == set(serial["timers"])
        for exp_id in ("fig1_2", "fig5"):
            assert f"experiment.{exp_id}" in parallel["timers"]

    def test_jobs_two_profile_renders_with_stats(self, tmp_path, capsys):
        """A parallel sweep's profile is a baseline artifact ``repro-map
        --stats`` renders: the per-experiment timers and the mapper
        counters merged from both workers."""
        from repro.cli import main as map_main

        prof_file = tmp_path / "experiments.json"
        assert runner.main(
            ["all", "--jobs", "2", "--profile", str(prof_file)]) == 0
        capsys.readouterr()
        assert map_main(["--stats", str(prof_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("profile: repro-experiments fig1_2 fig5\n")
        assert "jobs=2" in out
        assert "phase wall times:" in out
        for name in ("experiment.fig1_2", "experiment.fig5", "topolb.map",
                     "topolb.cycles"):
            assert f"  {name} " in out, name

    def test_jobs_flag_with_single_experiment_stays_serial(self, capsys):
        # One experiment never spins up a pool; the flag is simply recorded.
        assert runner.main(["fig1_2", "--jobs", "4"]) == 0
        assert "fig1_2" in capsys.readouterr().out
