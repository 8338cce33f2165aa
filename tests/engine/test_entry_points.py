"""Every entry point maps and measures through ``MappingEngine.run``.

``repro-map`` (:func:`repro.cli.run_mapping`) is one engine request: it must
report exactly the engine's metrics for the same inputs, including the
buffered DES replay a ``MappingRequest.netsim`` describes.
"""

import pytest

from repro.cli import main, run_mapping
from repro.engine import MappingEngine, MappingRequest
from repro.runtime import LBDatabase
from repro.taskgraph import mesh2d_pattern, save_taskgraph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "app.json"
    save_taskgraph(mesh2d_pattern(4, 4, message_bytes=2048), path)
    return path


@pytest.mark.parametrize("strategy", ["TopoLB", "RefineTopoLB", "topocentlb"])
def test_repro_map_reports_engine_metrics(graph_file, strategy):
    report = run_mapping(f"file:{graph_file}", "torus:4x4", strategy, 0, None)
    result = MappingEngine().run(MappingRequest(
        graph=f"file:{graph_file}", topology="torus:4x4", mapper=strategy,
        seed=0, flow_metrics=True,
    ))
    assert "weighted_dilation" in result.metrics
    assert "flow_max_link_bytes" in result.metrics
    for key, value in result.metrics.items():
        assert report[key] == value, key
    assert not any(key.startswith("des_") for key in report)


# RandomLB congests the buffers (drops and retransmits); TopoLB does not.
@pytest.mark.parametrize("strategy", ["TopoLB", "RandomLB"])
def test_repro_map_buffered_replay_matches_engine_netsim(graph_file, strategy):
    report = run_mapping(
        f"file:{graph_file}", "torus:4x4", strategy, 0, None,
        simulate_iters=2, buffer_bytes=2048.0,
    )
    result = MappingEngine().run(MappingRequest(
        graph=f"file:{graph_file}", topology="torus:4x4", mapper=strategy,
        seed=0,
        netsim={"iterations": 2, "buffer_bytes": 2048,
                "overload_policy": "drop"},
    ))
    for key in ("des_makespan_us", "des_p99_us", "des_dropped",
                "des_retransmits", "des_buffer_drops"):
        assert report[key] == result.metrics[key], key


@pytest.mark.parametrize("taskgraph,spec,topology,extra", [
    ("{file}", "file:{file}", "torus:4x4", []),
    ("file:{file}", "file:{file}", "torus:4x4", []),
    ("lbdump:{dump}", "lbdump:{dump}", "torus:4x4", []),
    ("{file}", "file:{file}", "torus:4x4",
     ["--simulate-iters", "2", "--buffer-bytes", "2048"]),
    ("mesh2d:2x4;bytes=1024", "mesh2d:2x4;bytes=1024",
     "fattree:arity=2;levels=3", ["--simulate-iters", "2"]),
    ("mesh2d:4x8;bytes=1024", "mesh2d:4x8;bytes=1024",
     "dragonfly:groups=4;routers=4;hosts=2", ["--simulate-iters", "2"]),
], ids=["path", "file", "lbdump", "buffered", "fattree", "dragonfly"])
def test_repro_map_prints_engine_metrics(graph_file, tmp_path, capsys,
                                         taskgraph, spec, topology, extra):
    """Every metric ``repro-map`` prints is the engine's, for the same
    request, on every input kind; a plain path means ``file:<path>``."""
    dump = tmp_path / "dump.json"
    LBDatabase.from_taskgraph(mesh2d_pattern(4, 4, message_bytes=2048)) \
        .dump(dump)
    assert main(["--taskgraph", taskgraph.format(file=graph_file, dump=dump),
                 "--topology", topology, "--strategy", "RefineTopoLB",
                 *extra]) == 0
    printed = dict(line.split(None, 1) for line in
                   capsys.readouterr().out.splitlines())

    netsim = None
    if extra:
        netsim = {"iterations": int(extra[1])}
        if "--buffer-bytes" in extra:
            netsim["buffer_bytes"] = float(extra[3])
    result = MappingEngine().run(MappingRequest(
        graph=spec.format(file=graph_file, dump=dump), topology=topology,
        mapper="RefineTopoLB", seed=0, flow_metrics=True, netsim=netsim,
    ))
    assert set(printed) == {"strategy", "num_objects", "num_processors",
                            *result.metrics}
    for key, value in result.metrics.items():
        assert printed[key] == f"{value:.6g}", key
    assert ("des_makespan_us" in printed) == bool(extra)
