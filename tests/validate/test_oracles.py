"""Differential oracles: two independent code paths must agree exactly."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SubTopology, Torus, ValidationError, mesh2d_pattern, ring_pattern
from repro.engine import mapper_from_spec
from repro.validate import validate_mapping


@pytest.fixture(scope="module")
def spec_run():
    """A fully spec-described TopoLB run (so full-tier oracles all fire)."""
    graph = mesh2d_pattern(4, 4, message_bytes=512)
    topo = Torus((4, 4))
    assignment = mapper_from_spec("topolb", 0).map(graph, topo).assignment
    return graph, topo, assignment


def _status(report, invariant):
    return {c.invariant: c for c in report.checks}[invariant]


def _native_unavailable() -> bool:
    from repro.mapping import _native

    return not _native.available()


class TestMetricsConsistency:
    def test_agrees_with_standalone_functions(self, spec_run):
        graph, topo, assignment = spec_run
        report = validate_mapping(graph, topo, assignment, level="cheap")
        assert _status(report, "metrics-block-consistency").status == "ok"

    def test_corrupted_metrics_block_detected(self, spec_run):
        from repro.mapping.metrics import metrics_block

        graph, topo, assignment = spec_run
        block = dict(metrics_block(graph, topo, assignment))
        block["hop_bytes"] = block["hop_bytes"] + 1.0
        with pytest.raises(ValidationError) as err:
            validate_mapping(graph, topo, assignment, level="cheap",
                             metrics=block)
        assert err.value.invariant == "metrics-block-consistency"
        assert "hop_bytes" in str(err.value)


class TestRemappingOracles:
    def test_kernel_and_spec_rebuild_agree(self, spec_run):
        graph, topo, assignment = spec_run
        report = validate_mapping(
            graph, topo, assignment, level="full",
            mapper_spec="topolb", seed=0,
        )
        assert _status(report, "kernel-differential").status == "ok"
        assert _status(report, "spec-rebuild-differential").status == "ok"
        assert _status(report, "link-load-conservation").status == "ok"

    def test_assignment_not_from_spec_detected(self, spec_run):
        # Hand the validator a *reversed* assignment but claim it came
        # from TopoLB: both remapping oracles must contradict it.
        graph, topo, assignment = spec_run
        fake = np.ascontiguousarray(assignment[::-1])
        assert not np.array_equal(fake, assignment)
        report = validate_mapping(
            graph, topo, fake, level="full",
            mapper_spec="topolb", seed=0, raise_on_violation=False,
        )
        violated = {v.invariant for v in report.violations()}
        assert "kernel-differential" in violated
        assert "spec-rebuild-differential" in violated

    def test_skipped_without_mapper_spec(self, spec_run):
        graph, topo, assignment = spec_run
        report = validate_mapping(graph, topo, assignment, level="full")
        assert _status(report, "kernel-differential").status == "skipped"
        assert _status(report, "spec-rebuild-differential").status == "skipped"

    def test_alias_specs_resolve_to_same_mapping(self, spec_run):
        # Strategy alias and canonical spelling build the same mapper, so
        # the spec-rebuild oracle holds for either spelling.
        graph, topo, assignment = spec_run
        for spelling in ("topolb", "TopoLB"):
            report = validate_mapping(
                graph, topo, assignment, level="full",
                mapper_spec=spelling, seed=0,
            )
            assert _status(report, "spec-rebuild-differential").status == "ok"


class TestSubTopologyOracle:
    def test_distances_match_parent_metric(self):
        parent = Torus((4, 4))
        sub = SubTopology(parent, [0, 1, 2, 5, 6, 7, 10, 11])
        graph = ring_pattern(8, message_bytes=64)
        assignment = mapper_from_spec("topolb", 0).map(graph, sub).assignment
        report = validate_mapping(
            graph, sub, assignment, level="full", mapper_spec="topolb", seed=0,
        )
        assert _status(report, "subtopology-distances").status == "ok"
        # Metric-only machine: routes leave the subset, conservation skips.
        assert _status(report, "link-load-conservation").status == "skipped"

    def test_skipped_on_plain_topology(self, spec_run):
        graph, topo, assignment = spec_run
        report = validate_mapping(graph, topo, assignment, level="full")
        assert _status(report, "subtopology-distances").status == "skipped"


class TestDesOracles:
    """A request that replays the DES gets two more full-tier checks: the
    replay on the reference event loop, and the flow bound."""

    KNOBS = {"iterations": 2, "buffer_bytes": 4096, "bandwidth": 100.0,
             "retry_jitter": 0.5, "seed": 3}

    def _run(self, netsim):
        from repro.engine import MappingEngine, MappingRequest

        return MappingEngine().run(MappingRequest(
            graph="mesh3d:4x4x4;bytes=4096", topology="torus:4x4x4",
            mapper="random", seed=1, validate="full", netsim=netsim))

    def _report(self, result, netsim):
        mapping = result.mapping
        return validate_mapping(
            mapping.graph, mapping.topology, result.assignment, level="full",
            mapper_spec="random", seed=1, metrics=result.metrics,
            netsim=netsim, raise_on_violation=False)

    def test_buffered_request_passes_both(self):
        result = self._run(self.KNOBS)  # raises on any violation
        assert result.metrics["des_buffer_drops"] > 0
        report = self._report(result, self.KNOBS)
        assert _status(report, "des-kernel-differential").status == "ok"
        assert _status(report, "flow-bound-below-des").status == "ok"

    @pytest.mark.skipif(_native_unavailable(), reason="no compiled DES")
    def test_flipped_tie_in_the_compiled_body_is_caught(self, monkeypatch):
        from repro.netsim.simulator import NetworkSimulator

        def last_axis_first(self, src, dst):
            # Break the tie among minimal routes the other way: the compiled
            # body routes the last axis first, the reference the first.
            route = self._route_choices_for((src, dst))[-1]
            route_set = self._engine.add_routes(
                [[v for link in route for v in link]])
            self._route_sets[src * self._num_procs + dst] = route_set
            return route_set

        monkeypatch.setattr(NetworkSimulator, "_route_set", last_axis_first)
        with pytest.raises(ValidationError) as err:
            self._run(self.KNOBS)
        assert err.value.invariant == "des-kernel-differential"
        assert "des_makespan_us" in str(err.value)

    def test_skipped_without_netsim(self):
        report = self._report(self._run(None), None)
        for invariant in ("des-kernel-differential", "flow-bound-below-des"):
            check = _status(report, invariant)
            assert check.status == "skipped"
            assert "no netsim replay" in check.detail
