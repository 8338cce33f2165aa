"""MappingEngine end-to-end tests: equivalence, pooled parity, metadata."""

import numpy as np
import pytest

from repro.engine import (
    MappingEngine,
    MappingRequest,
    canonical_command,
    graph_from_spec,
    mapper_from_spec,
)
from repro.exceptions import SpecError
from repro.mapping.refine import RefineTopoLB
from repro.mapping.topocentlb import TopoCentLB
from repro.mapping.topolb import TopoLB
from repro.service.daemon import _serve_batch
from repro.taskgraph.patterns import mesh2d_pattern
from repro.topology.factory import topology_from_spec
from repro.topology.torus import Torus


# Values every pre-refactor release produced for mesh2d 8x8 (bytes=1024) on
# torus:8x8 at seed 0 — the engine must keep reproducing them bit-for-bit.
GOLDEN = {
    "TopoLB": (229376.0, 1.0),
    "TopoCentLB": (342016.0, 1.4910714285714286),
    "RefineTopoLB": (229376.0, 1.0),
}


@pytest.mark.parametrize("strategy", sorted(GOLDEN))
def test_golden_metrics(strategy):
    result = MappingEngine().run(
        MappingRequest(
            graph="mesh2d:8x8;bytes=1024",
            topology="torus:8x8",
            mapper=strategy,
            seed=0,
        )
    )
    hop_bytes, hpb = GOLDEN[strategy]
    assert result.metrics["hop_bytes"] == hop_bytes
    assert result.metrics["hops_per_byte"] == hpb


@pytest.mark.parametrize("spec,direct", [
    ("topolb", lambda seed: TopoLB()),
    ("topolb:order=3", lambda seed: TopoLB(order=3)),
    ("topocentlb", lambda seed: TopoCentLB()),
    ("refine:base=topolb", lambda seed: RefineTopoLB(base=TopoLB(), seed=seed)),
])
@pytest.mark.parametrize("topology_spec", [
    "torus:8x8",
    "degraded:torus:8x8;seed=3;nodes=0.05",
])
def test_spec_vs_direct_bit_identical(spec, direct, topology_spec):
    # The pristine torus wants |tasks| == p; the degraded one auto-restricts
    # to its surviving processors, so the graph must fit under that count.
    rows = 8 if topology_spec.startswith("torus") else 7
    graph = mesh2d_pattern(rows, 8, message_bytes=1024)
    topology = topology_from_spec(topology_spec)
    seed = 0
    via_spec = mapper_from_spec(spec, seed).map(graph, topology).assignment
    via_direct = direct(seed).map(graph, topology).assignment
    assert np.array_equal(via_spec, via_direct)


def test_reference_kernel_request_matches_direct():
    graph = mesh2d_pattern(8, 8, message_bytes=1024)
    topology = Torus((8, 8))
    result = MappingEngine().run(
        MappingRequest(graph=graph, topology=topology, mapper="topolb",
                       seed=0, kernel="reference")
    )
    direct = TopoLB(kernel="reference").map(graph, topology).assignment
    assert np.array_equal(result.assignment, direct)
    assert result.metadata["kernel"] == "reference"


def test_engine_accepts_live_objects():
    graph = mesh2d_pattern(8, 8, message_bytes=1024)
    topology = Torus((8, 8))
    result = MappingEngine().run(
        MappingRequest(graph=graph, topology=topology, mapper=TopoLB())
    )
    assert result.metrics["hops_per_byte"] == pytest.approx(
        GOLDEN["TopoLB"][1]
    )
    assert result.metadata["strategy"] == "TopoLB"
    assert result.metadata["spec"] is None  # no spec for a live mapper


def test_metadata_round_trips_through_the_engine():
    first = MappingEngine().run(
        MappingRequest(graph="mesh2d:8x8;bytes=1024", topology="torus:8x8",
                       mapper="RefineTopoLB", seed=0)
    )
    meta = first.metadata
    assert meta["spec"] == "pipeline:inner=topolb;refine=on"
    assert "--seed 0" in meta["command"]
    # Re-running from the recorded metadata reproduces the placement exactly.
    again = MappingEngine().run(
        MappingRequest(graph="mesh2d:8x8;bytes=1024",
                       topology=meta["topology"], mapper=meta["spec"],
                       seed=meta["seed"], kernel=meta["kernel"])
    )
    assert np.array_equal(first.assignment, again.assignment)
    assert first.metrics == again.metrics


def test_in_process_run_equals_pooled_service_batch(serve_in_pool):
    """The service's pool workers map exactly as an in-process run does."""
    requests = [
        MappingRequest(graph="mesh2d:8x8;bytes=1024", topology="torus:8x8",
                       mapper=strategy, seed=0)
        for strategy in ("TopoLB", "TopoCentLB", "RefineTopoLB")
    ]
    engine = MappingEngine()
    for request, outcome in zip(requests, serve_in_pool(requests)):
        direct = engine.run(request)
        assert outcome["ok"]
        assert outcome["payload"]["assignment"] == direct.assignment.tolist()
        assert outcome["payload"]["metrics"] == direct.metrics


def test_service_batch_retries_exhausted_reports_error():
    [outcome] = _serve_batch(
        [MappingRequest(graph="mesh2d:8x8", topology="torus:8x8",
                        mapper="NopeLB")],
        None,
    )
    assert not outcome["ok"]
    assert outcome["kind"] == "SpecError"


def test_engine_profile_document():
    result = MappingEngine().run(
        MappingRequest(graph="mesh2d:8x8;bytes=1024", topology="torus:8x8",
                       mapper="TopoLB", seed=0, profile=True)
    )
    assert result.profile is not None
    assert "engine.map" in result.profile["timers"]
    assert result.profile["context"]["spec"] == "pipeline:inner=topolb"


def test_graph_from_spec_kinds():
    assert graph_from_spec("mesh2d:4x4").num_tasks == 16
    assert graph_from_spec("mesh3d:2x2x2;bytes=64").num_tasks == 8
    assert graph_from_spec("ring:5").num_tasks == 5
    assert graph_from_spec("alltoall:4").num_edges == 6
    g = graph_from_spec("random:10;p=0.5;seed=7")
    assert g.num_tasks == 10


@pytest.mark.parametrize("bad", [
    "mesh2d", "mesh2d:4", "mesh3d:4x4", "ring:x", "random:10;q=1", "nope:3",
])
def test_graph_from_spec_errors(bad):
    with pytest.raises(SpecError):
        graph_from_spec(bad)


def test_canonical_command_includes_seed_and_kernel():
    line = canonical_command("TopoLB", "torus:8x8", None, None)
    assert "--strategy 'pipeline:inner=topolb'" in line
    assert "--seed 0" in line
    assert "--kernel vectorized" in line
    line = canonical_command("topolb:order=3", "mesh:4x4", 7, "reference")
    assert "--seed 7" in line and "--kernel reference" in line
