"""Every entry point maps and measures through ``MappingEngine.run``.

``repro-map`` (:func:`repro.cli.run_mapping`) must report exactly the
engine's metrics for the same inputs, and its buffered DES replay must
agree with a ``MappingRequest.netsim`` replay of the same mapping.
"""

import pytest

from repro.cli import run_mapping
from repro.engine import MappingEngine, MappingRequest
from repro.taskgraph import mesh2d_pattern, save_taskgraph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "app.json"
    save_taskgraph(mesh2d_pattern(4, 4, message_bytes=2048), path)
    return path


@pytest.mark.parametrize("strategy", ["TopoLB", "RefineTopoLB", "topocentlb"])
def test_repro_map_reports_engine_metrics(graph_file, strategy):
    report = run_mapping(graph_file, False, "torus:4x4", strategy, 0, None)
    result = MappingEngine().run(MappingRequest(
        graph=f"file:{graph_file}", topology="torus:4x4", mapper=strategy,
        seed=0,
    ))
    assert "weighted_dilation" in result.metrics
    for key, value in result.metrics.items():
        assert report[key] == value, key


# RandomLB congests the buffers (drops and retransmits); TopoLB does not.
@pytest.mark.parametrize("strategy", ["TopoLB", "RandomLB"])
def test_repro_map_buffered_replay_matches_engine_netsim(graph_file, strategy):
    report = run_mapping(
        graph_file, False, "torus:4x4", strategy, 0, None,
        simulate_iters=2, buffer_bytes=2048.0,
    )
    result = MappingEngine().run(MappingRequest(
        graph=f"file:{graph_file}", topology="torus:4x4", mapper=strategy,
        seed=0,
        netsim={"iterations": 2, "buffer_bytes": 2048,
                "overload_policy": "drop"},
    ))
    assert report["sim_p99_us"] == result.metrics["des_p99_us"]
    assert report["sim_dropped"] == result.metrics["des_dropped"]
    assert report["sim_retransmits"] == result.metrics["des_retransmits"]
