"""Every counter and timer a profiled run emits is a row of the registry in
``docs/OBSERVABILITY.md``, and every committed profile still loads."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.engine import MappingEngine, MappingRequest, graph_from_spec
from repro.mapping import Mapping
from repro.netsim.appsim import replay_closed_loop
from repro.topology import topology_from_spec

ROOT = Path(__file__).resolve().parents[2]


def _registry(heading: str) -> set[str]:
    """The names in the first column of the table under ``heading``."""
    text = (ROOT / "docs/OBSERVABILITY.md").read_text()
    section = text.split(f"### {heading}", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^\| `([^`]+)`", section, re.MULTILINE))


def _request_profile(graph: str, topology: str, mapper: str) -> dict:
    request = MappingRequest(graph=graph, topology=topology, mapper=mapper,
                             profile=True, flow_metrics=True,
                             validate="cheap")
    return MappingEngine().run(request).profile


@pytest.mark.parametrize("graph, topology, mapper", [
    ("mesh2d:8x8;bytes=1024", "torus:4x4", "RefineTopoLB3"),
    ("mesh2d:16x16;bytes=1024", "torus:8x8", "multilevel:inner=topolb"),
], ids=["pipeline", "multilevel"])
def test_request_names_are_registered(graph, topology, mapper):
    profile = _request_profile(graph, topology, mapper)
    assert set(profile["counters"]) - _registry("Counters") == set()
    assert set(profile["timers"]) - _registry("Timers") == set()


@pytest.mark.parametrize("kernel", ["reference", "vectorized"])
def test_buffered_replay_counters_are_registered(kernel):
    """Two tasks per processor, and buffers of eight messages: local sends,
    saturated FIFOs, tail drops and retransmits."""
    graph = graph_from_spec("mesh3d:8x4x4;bytes=4096")
    order = np.random.default_rng(5).permutation(graph.num_tasks)
    mapping = Mapping(graph, topology_from_spec("torus:4x4x4"), order % 64)
    with obs.profiled() as prof:
        replay_closed_loop(mapping, 2, buffer_bytes=32768.0, kernel=kernel)
    for name in ("netsim.local_messages", "netsim.saturation_events",
                 "netsim.buffer_drops", "netsim.retransmits"):
        assert prof.counters[name] > 0, name
    assert set(prof.counters) - _registry("Counters") == set()


#: The committed ``repro-profile-v1`` artifacts (other ``BENCH_*.json``
#: files are ``repro-bench-v1`` reports).
PROFILES = sorted(
    path for path in [*ROOT.glob("BENCH_*.json"),
                      *(ROOT / "benchmarks").glob("BENCH_*.json")]
    if f'"{obs.PROFILE_FORMAT}"' in path.read_text())


@pytest.mark.parametrize("path", PROFILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_committed_profiles_load(path):
    """A schema change must not strand a committed profile."""
    obs.load_profile(path)
