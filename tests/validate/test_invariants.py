"""Invariant checkers: each fires on a crafted violation, passes on a valid
mapping, and records skips with reasons."""

from __future__ import annotations

import numpy as np
import pytest

from repro import TopoLB, Torus, ValidationError, mesh2d_pattern
from repro.validate import validate_mapping


@pytest.fixture(scope="module")
def valid():
    graph = mesh2d_pattern(4, 4, message_bytes=512)
    topo = Torus((4, 4))
    return graph, topo, TopoLB().map(graph, topo).assignment


def _statuses(report):
    return {c.invariant: c.status for c in report.checks}


class TestCheapTier:
    def test_valid_mapping_passes(self, valid):
        graph, topo, assignment = valid
        report = validate_mapping(graph, topo, assignment, level="cheap")
        assert report.ok
        statuses = _statuses(report)
        assert statuses["assignment-bounds"] == "ok"
        assert statuses["injectivity"] == "ok"
        assert statuses["hop-bytes-additivity"] == "ok"
        assert statuses["hop-bytes-lower-bound"] == "ok"
        assert statuses["metrics-block-consistency"] == "ok"
        assert "allowed-mask" not in statuses  # the check is gone
        # Full-tier oracles do not run at cheap.
        assert "kernel-differential" not in statuses

    def test_bounds_violation_shape(self, valid):
        graph, topo, assignment = valid
        with pytest.raises(ValidationError) as err:
            validate_mapping(graph, topo, assignment[:-1], level="cheap")
        assert err.value.invariant == "assignment-bounds"

    def test_bounds_violation_range(self, valid):
        graph, topo, assignment = valid
        bad = np.array(assignment)
        bad[5] = topo.num_nodes  # one past the last processor
        with pytest.raises(ValidationError) as err:
            validate_mapping(graph, topo, bad, level="cheap")
        assert err.value.invariant == "assignment-bounds"

    def test_bounds_violation_dtype(self, valid):
        graph, topo, assignment = valid
        with pytest.raises(ValidationError) as err:
            validate_mapping(graph, topo, assignment.astype(np.float64),
                             level="cheap")
        assert err.value.invariant == "assignment-bounds"

    def test_injectivity_violation(self, valid):
        graph, topo, assignment = valid
        bad = np.array(assignment)
        bad[3] = bad[0]
        with pytest.raises(ValidationError) as err:
            validate_mapping(graph, topo, bad, level="cheap")
        assert err.value.invariant == "injectivity"
        assert str(bad[0]) in str(err.value)

    def test_many_to_one_is_not_an_injectivity_violation(self):
        # 8 tasks on 4 processors is necessarily many-to-one: skipped.
        graph = mesh2d_pattern(2, 4, message_bytes=1.0)
        topo = Torus((2, 2))
        report = validate_mapping(
            graph, topo, np.arange(8) % 4, level="cheap"
        )
        assert _statuses(report)["injectivity"] == "skipped"
        assert report.ok

    def test_underfull_injective_mapping_passes(self):
        # 14 tasks on 16 processors, one per processor.
        graph = mesh2d_pattern(2, 7, message_bytes=8.0)
        report = validate_mapping(graph, Torus((4, 4)), np.arange(2, 16),
                                  level="cheap")
        assert _statuses(report)["injectivity"] == "ok"
        assert report.ok

    def test_lower_bound_skipped_for_non_bijection(self):
        graph = mesh2d_pattern(2, 2, message_bytes=1.0)
        topo = Torus((4, 2))
        report = validate_mapping(graph, topo, [0, 1, 2, 3], level="cheap")
        assert _statuses(report)["hop-bytes-lower-bound"] == "skipped"


class TestReportShape:
    def test_off_level_runs_nothing(self, valid):
        graph, topo, assignment = valid
        report = validate_mapping(graph, topo, assignment, level="off")
        assert report.checks == [] and report.ok

    def test_unknown_level_rejected(self, valid):
        from repro.exceptions import SpecError

        graph, topo, assignment = valid
        with pytest.raises(SpecError):
            validate_mapping(graph, topo, assignment, level="paranoid")

    def test_raise_on_violation_false_collects(self, valid):
        graph, topo, assignment = valid
        bad = np.array(assignment)
        bad[3] = bad[0]
        report = validate_mapping(graph, topo, bad, level="cheap",
                                  raise_on_violation=False)
        assert not report.ok
        assert [v.invariant for v in report.violations()] == ["injectivity"]
        doc = report.to_dict()
        assert doc["level"] == "cheap"
        assert any(c["status"] == "violated" for c in doc["checks"])

    def test_error_carries_structure_and_replay(self, valid):
        graph, topo, assignment = valid
        bad = np.array(assignment)
        bad[3] = bad[0]
        with pytest.raises(ValidationError) as err:
            validate_mapping(
                graph, topo, bad, level="cheap",
                graph_spec="mesh2d:4x4;bytes=512", topology_spec="torus:4x4",
                mapper_spec="TopoLB", seed=0,
            )
        exc = err.value
        assert exc.invariant == "injectivity"
        assert exc.spec["mapper"] == "TopoLB"
        assert exc.replay == (
            "repro-validate --graph 'mesh2d:4x4;bytes=512' "
            "--topology torus:4x4 --mapper TopoLB --seed 0 "
            "--validate cheap"
        )
        assert exc.details["violations"][0]["invariant"] == "injectivity"

    def test_no_replay_without_specs(self, valid):
        graph, topo, assignment = valid
        report = validate_mapping(graph, topo, assignment, level="cheap")
        assert report.replay is None
