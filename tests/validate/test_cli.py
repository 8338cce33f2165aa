"""``repro-validate`` CLI: exit codes, report artifact, regeneration."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.validate import iter_golden_paths
from repro.validate.cli import REPORT_FORMAT, main

CORPUS = Path(__file__).resolve().parents[1] / "golden"


@pytest.fixture()
def small_corpus(tmp_path):
    """A one-file copy of the real corpus (keeps CLI tests fast)."""
    root = tmp_path / "golden"
    root.mkdir()
    shutil.copy(iter_golden_paths(CORPUS)[0], root / "pinned.json")
    return root


def test_corpus_mode_ok_with_report(small_corpus, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["--golden", str(small_corpus), "--validate", "cheap",
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "1/1 validation passes ok" in out

    doc = json.loads(report.read_text())
    assert doc["format"] == REPORT_FORMAT
    assert doc["violations"] == 0
    assert [r["target"] for r in doc["records"]] == [
        str(small_corpus / "pinned.json")]


def test_corrupt_golden_exits_1_and_reports(small_corpus, tmp_path, capsys):
    target = small_corpus / "pinned.json"
    doc = json.loads(target.read_text())
    doc["metrics"]["hop_bytes"] += 1.0
    target.write_text(json.dumps(doc))

    report = tmp_path / "report.json"
    assert main(["--golden", str(small_corpus), "--validate", "cheap",
                 "--report", str(report)]) == 1
    assert "golden-drift" in capsys.readouterr().err

    record = json.loads(report.read_text())["records"][0]
    assert record["status"] == "violated"
    assert record["invariant"] == "golden-drift"
    assert record["replay"].startswith("repro-validate --graph")


def test_single_run_mode(capsys):
    assert main(["--graph", "mesh2d:4x4;bytes=64", "--topology", "torus:4x4",
                 "--mapper", "TopoLB", "--seed", "0",
                 "--validate", "full"]) == 0
    assert "hop_bytes=" in capsys.readouterr().out


def test_single_run_replay_at_paper_scale(capsys):
    """The replay command a ValidationError embeds, at the scale of the
    paper's 8x8 jacobi runs: the full tier, differential oracles included."""
    assert main(["--graph", "mesh2d:8x8;bytes=1024", "--topology", "torus:8x8",
                 "--mapper", "TopoLB", "--seed", "0",
                 "--validate", "full"]) == 0
    assert "hop_bytes=" in capsys.readouterr().out


def test_single_run_bad_spec_exits_2(capsys):
    assert main(["--graph", "nosuchpattern:4x4", "--topology", "torus:4x4",
                 "--validate", "cheap"]) == 2
    assert "error:" in capsys.readouterr().err


def test_empty_corpus_exits_2(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["--golden", str(tmp_path / "empty")]) == 2
    assert "no golden files" in capsys.readouterr().err


def test_graph_and_golden_are_exclusive(small_corpus):
    with pytest.raises(SystemExit):
        main(["--graph", "mesh2d:4x4", "--golden", str(small_corpus)])


def test_graph_requires_topology():
    with pytest.raises(SystemExit):
        main(["--graph", "mesh2d:4x4"])


def test_kernel_flag_is_gone(small_corpus, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--golden", str(small_corpus), "--kernel", "both"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --kernel" in capsys.readouterr().err


def test_regenerate_is_idempotent(small_corpus, capsys):
    target = small_corpus / "pinned.json"
    before = target.read_text()
    assert main(["--regenerate", "--golden", str(small_corpus)]) == 0
    assert "regenerated" in capsys.readouterr().out
    # Deterministic pipeline: regeneration without a code change is a no-op.
    assert target.read_text() == before
