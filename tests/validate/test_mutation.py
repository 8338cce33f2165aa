"""Acceptance check: a deliberately corrupted assignment is caught with a
structured, replayable error (ISSUE acceptance criterion)."""

from __future__ import annotations

import shlex

import numpy as np
import pytest

from repro import ValidationError
from repro.engine import MappingEngine, MappingRequest
from repro.validate import validate_mapping
from repro.validate.cli import main as validate_cli

GRAPH = "mesh2d:4x4;bytes=512"
TOPOLOGY = "torus:4x4"
MAPPER = "TopoLB"
SEED = 0


def _engine_assignment():
    result = MappingEngine().run(MappingRequest(
        graph=GRAPH, topology=TOPOLOGY, mapper=MAPPER, seed=SEED,
    ))
    return result


def test_corrupted_assignment_caught_with_replay():
    from repro.engine import graph_from_spec
    from repro.topology import topology_from_spec

    result = _engine_assignment()
    corrupted = np.array(result.assignment)
    corrupted[0], corrupted[1] = corrupted[1], corrupted[0]  # swap two tasks

    graph = graph_from_spec(GRAPH)
    topo = topology_from_spec(TOPOLOGY)
    with pytest.raises(ValidationError) as err:
        validate_mapping(
            graph, topo, corrupted, level="full",
            mapper_spec=MAPPER, graph_spec=GRAPH, topology_spec=TOPOLOGY,
            seed=SEED,
        )
    exc = err.value

    # Structured: the error names the violated invariant and the spec triple.
    assert exc.invariant in ("kernel-differential", "spec-rebuild-differential")
    assert exc.spec["graph"] == GRAPH
    assert exc.spec["topology"] == TOPOLOGY
    assert exc.spec["mapper"] == MAPPER
    assert exc.details["violations"]

    # Replayable: the embedded command is a runnable repro-validate line.
    assert exc.replay is not None
    argv = shlex.split(exc.replay)
    assert argv[0] == "repro-validate"
    # The replay re-runs the *mapper*, whose real output is valid — it
    # demonstrates the corruption was in the checked assignment, not the code.
    assert validate_cli(argv[1:]) == 0


def test_error_message_names_invariant_and_replay():
    result = _engine_assignment()
    from repro.engine import graph_from_spec
    from repro.topology import topology_from_spec

    bad = np.array(result.assignment)
    bad[2] = bad[3]  # duplicate a processor: injectivity breaks
    with pytest.raises(ValidationError) as err:
        validate_mapping(
            graph_from_spec(GRAPH), topology_from_spec(TOPOLOGY), bad,
            level="cheap", mapper_spec=MAPPER, graph_spec=GRAPH,
            topology_spec=TOPOLOGY, seed=SEED,
        )
    text = str(err.value)
    assert "injectivity" in text
    assert "replay: repro-validate" in text
    assert GRAPH in text
