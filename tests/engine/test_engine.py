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
@pytest.mark.parametrize("rows", [8, 7], ids=["torus:8x8", "torus:8x8-underfull"])
def test_spec_vs_direct_bit_identical(spec, direct, rows):
    # 8 rows fill the 8x8 torus; 7 rows place 56 tasks on its 64 processors.
    graph = mesh2d_pattern(rows, 8, message_bytes=1024)
    topology = topology_from_spec("torus:8x8")
    seed = 0
    via_spec = mapper_from_spec(spec, seed).map(graph, topology).assignment
    via_direct = direct(seed).map(graph, topology).assignment
    assert np.array_equal(via_spec, via_direct)


def test_request_has_no_kernel_field():
    """The mapper picks its own kernel: a request cannot name one, and the
    result's metadata does not echo one."""
    with pytest.raises(TypeError, match="kernel"):
        MappingRequest(graph="mesh2d:4x4", topology="torus:4x4",
                       mapper="topolb", kernel="reference")
    result = MappingEngine().run(
        MappingRequest(graph="mesh2d:4x4", topology="torus:4x4",
                       mapper="topolb", seed=0)
    )
    assert "kernel" not in result.metadata
    assert "--kernel" not in result.metadata["command"]


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
                       seed=meta["seed"])
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


def test_service_batch_unknown_mapper_reports_spec_error():
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


@pytest.mark.parametrize("spec", [
    "alltoall:100000", "alltoall:1415", "ring:1000001", "mesh2d:1001x1000",
    "mesh3d:100x100x100", "random:100000;p=0.00001", "random:1415",
])
def test_oversized_generated_graph_is_refused_before_it_is_built(spec):
    """The size comes from the spec alone: ``random:`` draws once per
    candidate pair whatever ``p`` is, so its pairs count."""
    with pytest.raises(SpecError, match="capped at 1,000,000"):
        graph_from_spec(spec)


def test_generated_size_cap_is_above_every_paper_input():
    """mesh3d:48x48x48 (the 110k-task run) and alltoall:1414 fit."""
    from repro.engine.core import MAX_GENERATED_SIZE, _check_generated_size

    assert MAX_GENERATED_SIZE >= 3 * 48 ** 3
    _check_generated_size("mesh3d:48x48x48", 48 ** 3, 3 * 47 * 48 ** 2)
    _check_generated_size("alltoall:1414", 1414, 1414 * 1413 // 2)


@pytest.mark.parametrize("bad", ["mesh2d:4x4;bytes=nan", "ring:16;bytes=inf",
                                 "random:8;p=nan", "random:8;seed=inf"])
def test_non_finite_graph_option_is_a_spec_error(bad):
    with pytest.raises(SpecError, match="finite"):
        graph_from_spec(bad)
    # Never a mapping with NaN hop-bytes.
    with pytest.raises(SpecError, match="finite"):
        MappingEngine().run(MappingRequest(graph=bad, topology="torus:4x4",
                                           mapper="random", seed=0))


def test_canonical_command_includes_seed():
    line = canonical_command("mesh2d:8x8", "TopoLB", "torus:8x8", None)
    assert line.startswith("repro-map --taskgraph mesh2d:8x8 ")
    assert "--strategy pipeline:inner=topolb" in line
    assert "--seed 0" in line
    line = canonical_command("file:app.json", "topolb:order=3", "mesh:4x4", 7)
    assert "--seed 7" in line


def test_command_recorded_only_for_spec_requests():
    """A live graph, topology or mapper has no command line."""
    specs = {"graph": "mesh2d:4x4", "topology": "torus:4x4",
             "mapper": "topolb"}
    live = {"graph": mesh2d_pattern(4, 4), "topology": Torus((4, 4)),
            "mapper": TopoLB()}
    engine = MappingEngine()
    assert "command" in engine.run(MappingRequest(**specs)).metadata
    for field_name, obj in live.items():
        meta = engine.run(MappingRequest(**{**specs, field_name: obj})).metadata
        assert "command" not in meta, field_name


def test_recorded_command_lines_survive_a_shell(tmp_path, capsys):
    """Both recorded command lines split, in a shell, into exactly the
    arguments their own parsers need: a dragonfly topology spec carries
    ``;``, which an unquoted line would cut into two commands. The
    ``command`` a result records, run through the shell into ``repro-map``,
    prints the engine's hop-bytes for a file-backed and a generated graph
    alike."""
    import subprocess

    from repro.cli import build_parser as map_parser
    from repro.cli import main as map_main
    from repro.taskgraph import save_taskgraph
    from repro.validate.cli import build_parser as validate_parser
    from repro.validate.core import replay_command

    graph = "mesh2d:8x8;bytes=1024"
    topology = "dragonfly:groups=4;routers=4;hosts=2"
    mapper = "pipeline:inner=topolb,order=3;refine=on"

    def shell_argv(line):
        program, _, rest = line.partition(" ")
        out = subprocess.run(
            ["sh", "-c", f"printf '%s\\n' {rest}"],
            capture_output=True, text=True, check=True,
        ).stdout
        return program, out.splitlines()

    program, argv = shell_argv(canonical_command(graph, mapper, topology, 3))
    args = map_parser().parse_args(argv)
    assert program == "repro-map"
    assert (args.taskgraph, args.strategy, args.topology, args.seed) \
        == (graph, mapper, topology, 3)

    program, argv = shell_argv(replay_command(graph, topology, mapper, 3,
                                              "full"))
    args = validate_parser().parse_args(argv)
    assert program == "repro-validate"
    assert (args.graph, args.topology, args.mapper, args.seed, args.level) \
        == (graph, topology, mapper, 3, "full")

    path = tmp_path / "my app.json"  # a space the shell must keep
    save_taskgraph(mesh2d_pattern(8, 8, message_bytes=1024), path)
    for spec in (f"file:{path}", graph):
        result = MappingEngine().run(MappingRequest(
            graph=spec, topology=topology, mapper=mapper, seed=3,
        ))
        program, argv = shell_argv(result.metadata["command"])
        assert program == "repro-map"
        assert map_main(argv) == 0
        printed = dict(line.split(None, 1) for line in
                       capsys.readouterr().out.splitlines())
        assert printed["hop_bytes"] == f"{result.metrics['hop_bytes']:.6g}"
        assert printed["num_objects"] == "64"


def test_request_path_never_imports_scipy():
    """With the compiled kernels, serving TopoLB, refine, multilevel and
    DES-replay requests on tori never imports SciPy: it is loaded only by
    the reference cost table, ``adjacency_csr`` and irregular machines."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    from repro.mapping import _native

    if not _native.available():
        pytest.skip("no compiled kernels: the reference cost table uses SciPy")
    code = """
import sys
from repro.engine import MappingEngine, MappingRequest
engine = MappingEngine()
for mapper, graph, topo, extra in [
        ("topolb", "mesh2d:8x8", "torus:8x8", {}),
        ("refine:base=topolb", "mesh2d:8x8", "torus:8x8",
         {"flow_metrics": True, "validate": "cheap"}),
        ("multilevel:inner=topolb;stop=16", "mesh3d:6x6x6", "torus:6x6x6", {}),
        ("topolb", "mesh2d:4x4", "torus:4x4", {"netsim": {"iterations": 1}})]:
    engine.run(MappingRequest(graph=graph, topology=topo, mapper=mapper,
                              seed=0, **extra))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    root = Path(__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, cwd=str(root))
    assert out.stdout.strip() == "[]"
