"""MappingRequest.validate plumbed through MappingEngine.run and the
service's pooled batch worker."""

from __future__ import annotations

import pytest

from repro import ValidationError
from repro.engine import MappingEngine, MappingRequest
from repro.exceptions import SpecError


def _request(**kw):
    base = dict(graph="mesh2d:4x4;bytes=512", topology="torus:4x4",
                mapper="TopoLB", seed=0)
    base.update(kw)
    return MappingRequest(**base)


def test_default_is_off():
    assert MappingRequest(graph="g", topology="t", mapper="m").validate == "off"


def test_invalid_level_rejected_before_mapping():
    with pytest.raises(SpecError):
        MappingEngine().run(_request(validate="everything"))


@pytest.mark.parametrize("level", ["cheap", "full"])
def test_engine_runs_green_at_each_level(level):
    result = MappingEngine().run(_request(validate=level))
    assert result.metrics["hop_bytes"] > 0


def test_validate_full_on_underfull_machine():
    # 14 tasks on 16 processors: every full-tier oracle accepts n < p.
    result = MappingEngine().run(_request(
        graph="ring:14;bytes=64",
        topology="torus:4x4",
        mapper="refine:base=topolb",
        validate="full",
    ))
    assert result.metrics["hop_bytes"] > 0


def test_pooled_batch_carries_per_request_levels(serve_in_pool):
    """Each request's level travels with it into a pool worker, which maps
    exactly as an in-process run does."""
    requests = [
        _request(validate="cheap"),
        _request(mapper="TopoCentLB", validate="full"),
        _request(mapper="identity", validate="off"),
    ]
    for request, outcome in zip(requests, serve_in_pool(requests)):
        direct = MappingEngine().run(request)
        assert outcome["ok"]
        assert outcome["payload"]["metrics"]["hop_bytes"] > 0
        assert outcome["payload"]["assignment"] == direct.assignment.tolist()
        assert outcome["payload"]["metrics"] == direct.metrics


def test_validation_error_reaches_caller(monkeypatch):
    # Corrupt the metrics block the engine hands to validation (the engine
    # imports it from repro.mapping.metrics at call time).
    from repro.mapping import metrics as metrics_mod

    real = metrics_mod.metrics_block

    def corrupt(graph, topology, assignment, **kw):
        block = dict(real(graph, topology, assignment, **kw))
        block["hop_bytes"] = block["hop_bytes"] + 1.0
        return block

    monkeypatch.setattr(metrics_mod, "metrics_block", corrupt)
    with pytest.raises(ValidationError) as err:
        MappingEngine().run(_request(validate="cheap"))
    assert err.value.invariant == "metrics-block-consistency"
    assert err.value.replay is not None
