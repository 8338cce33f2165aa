"""Golden-regression corpus: every pinned triple replays bit-identically
with and without the compiled kernels, and tampered documents are
rejected."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import ValidationError
from repro.validate import check_golden, iter_golden_paths, load_golden

CORPUS = Path(__file__).resolve().parents[1] / "golden"

GOLDEN_PATHS = iter_golden_paths(CORPUS)


def test_corpus_is_not_empty():
    assert len(GOLDEN_PATHS) >= 8


def test_corpus_covers_flow_mode():
    """At least two triples pin the flow estimator's metrics, so drift in
    route accounting or the makespan bound trips the corpus even when every
    assignment is unchanged."""
    flow_docs = [load_golden(p) for p in GOLDEN_PATHS
                 if load_golden(p).get("flow_metrics")]
    assert len(flow_docs) >= 2
    for doc in flow_docs:
        assert {"flow_max_link_bytes", "flow_total_bytes", "flow_links_used",
                "flow_makespan_lower_bound_us"} <= doc["metrics"].keys()


def test_flow_metric_drift_detected(tmp_path):
    flow_path = next(p for p in GOLDEN_PATHS
                     if load_golden(p).get("flow_metrics"))
    doc = load_golden(flow_path)
    doc["metrics"]["flow_max_link_bytes"] += 1.0
    path = tmp_path / "tampered_flow.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        check_golden(path, level="cheap")
    assert err.value.details["metric"] == "flow_max_link_bytes"


@pytest.mark.parametrize("path", GOLDEN_PATHS, ids=lambda p: p.stem)
@pytest.mark.parametrize("body", ["vectorized", "reference"])
def test_golden_replays_exactly(path, body, monkeypatch):
    """Each triple replays at ``level="full"``, whose kernel-differential
    oracle rebuilds the mapper on the reference kernel. The ``vectorized``
    case runs the production path on the compiled kernels; the
    ``reference`` case runs it under ``REPRO_NO_NATIVE=1``, where every
    compiled call site, the partitioner's included, runs its reference
    body."""
    if body == "reference":
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    assert check_golden(path, level="full") == load_golden(path)["metrics"]


def _tampered(tmp_path, mutate):
    doc = load_golden(GOLDEN_PATHS[0])
    mutate(doc)
    out = tmp_path / "tampered.json"
    out.write_text(json.dumps(doc))
    return out


def test_assignment_drift_detected(tmp_path):
    def mutate(doc):
        doc["assignment"][0], doc["assignment"][1] = (
            doc["assignment"][1], doc["assignment"][0])

    path = _tampered(tmp_path, mutate)
    with pytest.raises(ValidationError) as err:
        check_golden(path, level="cheap")
    assert err.value.invariant == "golden-drift"
    assert "--regenerate" in str(err.value)


def test_metric_drift_detected(tmp_path):
    def mutate(doc):
        doc["metrics"]["hop_bytes"] += 1.0

    path = _tampered(tmp_path, mutate)
    with pytest.raises(ValidationError) as err:
        check_golden(path, level="cheap")
    assert err.value.invariant == "golden-drift"
    assert err.value.details["metric"] == "hop_bytes"


def test_wrong_format_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "not-golden"}))
    with pytest.raises(ValidationError) as err:
        load_golden(path)
    assert err.value.invariant == "golden-format"


def test_missing_keys_rejected(tmp_path):
    doc = load_golden(GOLDEN_PATHS[0])
    del doc["metrics"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        load_golden(path)
    assert "metrics" in str(err.value)


def test_unreadable_file_rejected(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError) as err:
        load_golden(path)
    assert err.value.invariant == "golden-format"
