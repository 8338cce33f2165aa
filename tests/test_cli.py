"""Tests for the ``repro-map`` command-line tool."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.runtime import LBDatabase
from repro.taskgraph import mesh2d_pattern, save_taskgraph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "app.json"
    save_taskgraph(mesh2d_pattern(4, 4, message_bytes=256), path)
    return path


class TestReproMap:
    def test_basic_report(self, graph_file, capsys):
        assert main(["--taskgraph", str(graph_file), "--topology", "torus:4x4"]) == 0
        out = capsys.readouterr().out
        assert "hops_per_byte" in out
        assert "TopoLB" in out

    def test_placement_output(self, graph_file, tmp_path, capsys):
        out_file = tmp_path / "placement.json"
        rc = main([
            "--taskgraph", str(graph_file), "--topology", "torus:4x4",
            "--strategy", "TopoCentLB", "--output", str(out_file),
        ])
        assert rc == 0
        payload = json.loads(out_file.read_text())
        assert payload["format"] == "repro-placement-v1"
        assert sorted(payload["placement"]) == list(range(16))

    def test_lb_dump_input(self, tmp_path, capsys):
        dump = tmp_path / "dump.json"
        LBDatabase.from_taskgraph(mesh2d_pattern(3, 3)).dump(dump)
        rc = main(["--taskgraph", f"lbdump:{dump}",
                   "--topology", "mesh:3x3", "--strategy", "RandomLB"])
        assert rc == 0
        report = dict(line.split(None, 1) for line in
                      capsys.readouterr().out.splitlines())
        assert report["num_objects"] == "9"

    def test_generated_graph_spec(self, capsys):
        rc = main(["--taskgraph", "mesh2d:4x4;bytes=256",
                   "--topology", "torus:4x4"])
        assert rc == 0
        assert "num_objects" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--lb-dump"],
                                      ["--netsim-mode", "flow"],
                                      ["--netsim-mode", "des"]])
    def test_removed_flags_are_usage_errors(self, graph_file, flag, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--taskgraph", str(graph_file), "--topology", "torus:4x4",
                  *flag])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_list_strategies(self, capsys):
        assert main(["--list-strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("TopoLB", "TopoCentLB", "GreedyLB", "HybridTopoLB"):
            assert name in out

    def test_missing_args_errors(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_kernel_flag_is_gone(self, graph_file, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--taskgraph", str(graph_file), "--topology", "torus:4x4",
                  "--kernel", "reference"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err

    def test_bad_topology_spec(self, graph_file, capsys):
        rc = main(["--taskgraph", str(graph_file), "--topology", "blob:9"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_strategy(self, graph_file, capsys):
        rc = main(["--taskgraph", str(graph_file), "--topology", "torus:4x4",
                   "--strategy", "NopeLB"])
        assert rc == 1

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["--taskgraph", str(tmp_path / "absent.json"),
                   "--topology", "torus:4x4"])
        assert rc == 1

    def test_deterministic_with_seed(self, graph_file, tmp_path):
        outs = []
        for i in range(2):
            f = tmp_path / f"p{i}.json"
            main(["--taskgraph", str(graph_file), "--topology", "torus:4x4",
                  "--strategy", "RandomLB", "--seed", "42", "--output", str(f)])
            outs.append(json.loads(f.read_text())["placement"])
        assert outs[0] == outs[1]


class TestProfileAndStats:
    def test_profile_writes_valid_artifact(self, graph_file, tmp_path, capsys):
        from repro import obs

        prof_file = tmp_path / "prof.json"
        rc = main(["--taskgraph", str(graph_file), "--topology", "torus:4x4",
                   "--strategy", "RefineTopoLB", "--profile", str(prof_file)])
        assert rc == 0
        assert "profile_written" in capsys.readouterr().out

        doc = obs.load_profile(prof_file)  # validates against the schema
        assert doc["format"] == "repro-profile-v1"
        for timer in ("engine.load", "engine.map", "engine.netsim",
                      "engine.flow", "topolb.map"):
            assert timer in doc["timers"], timer
        assert doc["counters"]["topolb.cycles"] == 16
        assert doc["context"]["strategy"] == "RefineTopoLB"
        assert doc["context"]["num_objects"] == 16
        # --profile defaults to one simulated iteration -> netsim section.
        assert doc["netsim"]["links_used"] > 0
        assert doc["netsim"]["top_links"]
        assert doc["netsim"]["tail"]["delivered"] > 0
        assert doc["command"].startswith("repro-map --taskgraph file:")

    def test_profile_without_simulation(self, graph_file, tmp_path, capsys):
        prof_file = tmp_path / "prof.json"
        rc = main(["--taskgraph", str(graph_file), "--topology", "torus:4x4",
                   "--profile", str(prof_file), "--simulate-iters", "0"])
        assert rc == 0
        doc = json.loads(prof_file.read_text())
        assert "netsim" not in doc
        assert "des_makespan_us" not in capsys.readouterr().out

    def test_simulate_iters_without_profile(self, graph_file, capsys):
        rc = main(["--taskgraph", str(graph_file), "--topology", "torus:4x4",
                   "--simulate-iters", "2"])
        assert rc == 0
        assert "des_makespan_us" in capsys.readouterr().out

    def test_negative_simulate_iters_rejected(self, graph_file):
        with pytest.raises(SystemExit):
            main(["--taskgraph", str(graph_file), "--topology", "torus:4x4",
                  "--simulate-iters", "-1"])

    def test_profiling_disabled_after_run(self, graph_file, tmp_path):
        from repro import obs

        main(["--taskgraph", str(graph_file), "--topology", "torus:4x4",
              "--profile", str(tmp_path / "prof.json")])
        assert obs.active() is None

    def test_stats_renders_profile(self, graph_file, tmp_path, capsys):
        prof_file = tmp_path / "prof.json"
        main(["--taskgraph", str(graph_file), "--topology", "torus:4x4",
              "--profile", str(prof_file)])
        capsys.readouterr()
        assert main(["--stats", str(prof_file)]) == 0
        out = capsys.readouterr().out
        assert "phase wall times" in out
        assert "topolb.cycles" in out
        assert "hottest links" in out

    def test_flow_mode_profile_and_stats(self, tmp_path, capsys):
        """Profiles written with a flow-estimator netsim section, before
        repro-map always replayed through the DES, still load and render."""
        from repro import obs

        prof_file = tmp_path / "prof.json"
        obs.save_profile(obs.build_profile(
            obs.Profiler(),
            command="repro-map --strategy pipeline:inner=topolb;refine=on "
                    "--topology torus:4x4 --seed 0",
            netsim={
                "mode": "flow",
                "links_used": 2,
                "total_bytes": 3072.0,
                "max_link_bytes": 2048.0,
                "mean_utilization": 0.75,
                "max_utilization": 1.0,
                "makespan_lower_bound_us": 20.8,
                "top_links": [
                    {"link": "0->1", "bytes": 2048.0, "messages": 8},
                    {"link": "1->0", "bytes": 1024.0, "messages": 4},
                ],
            },
        ), prof_file)

        doc = obs.load_profile(prof_file)  # validates against the schema
        assert doc["netsim"]["mode"] == "flow"
        assert main(["--stats", str(prof_file)]) == 0
        out = capsys.readouterr().out
        assert "makespan >= 20.8 us" in out
        assert "hottest links (bytes / messages):" in out

    def test_flow_mode_replay_on_a_larger_torus(self, tmp_path, capsys):
        """RefineTopoLB on a 3-D torus: the flow estimator's scalars beside
        a four-iteration DES replay, without a profile."""
        path = tmp_path / "app8x8.json"
        save_taskgraph(mesh2d_pattern(8, 8, message_bytes=1024), path)
        rc = main(["--taskgraph", str(path), "--topology", "torus:4x4x4",
                   "--strategy", "RefineTopoLB", "--simulate-iters", "4"])
        assert rc == 0
        report = dict(line.split(None, 1) for line in
                      capsys.readouterr().out.splitlines())
        assert float(report["flow_makespan_lower_bound_us"]) > 0
        assert float(report["flow_max_link_bytes"]) > 0
        # The flow makespan is a lower bound on the DES one (one iteration
        # against four here, so strictly below).
        assert (float(report["flow_makespan_lower_bound_us"])
                < float(report["des_makespan_us"]))

    def test_stats_missing_file(self, tmp_path, capsys):
        rc = main(["--stats", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_stats_rejects_invalid_profile(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "something-else"}))
        rc = main(["--stats", str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("topology,rows,cols", [
    ("fattree:arity=2;levels=3", 2, 4),
    ("dragonfly:groups=4;routers=4;hosts=2", 4, 8),
], ids=["fattree", "dragonfly"])
@pytest.mark.parametrize("mode", ["des", "flow"])
def test_indirect_network_end_to_end(topology, rows, cols, mode, tmp_path,
                                     capsys):
    """Map on the switch-level machines, then report the flow estimator's
    scalars alone (``flow``) or beside a three-iteration DES replay
    (``des``). Full validation of TopoLB on the same machines is pinned by
    the golden corpus."""
    path = tmp_path / "app.json"
    save_taskgraph(mesh2d_pattern(rows, cols, message_bytes=1024), path)
    replay = ["--simulate-iters", "3"] if mode == "des" else []
    rc = main(["--taskgraph", str(path), "--topology", topology,
               "--strategy", "TopoLB", *replay])
    assert rc == 0
    report = dict(line.split(None, 1) for line in
                  capsys.readouterr().out.splitlines())
    assert float(report["flow_makespan_lower_bound_us"]) > 0
    assert float(report["flow_links_used"]) > 0
    if mode == "des":
        assert float(report["des_makespan_us"]) > 0
        assert float(report["des_delivered"]) > 0
    else:
        assert not any(key.startswith("des_") for key in report)
    assert float(report["hops_per_byte"]) > 1
