"""Source guards: deletions and single paths that must stay that way.

Each test greps the package source for a pattern that a removed code path or
a bypass of the one sanctioned path would reintroduce. A match fails with the
offending ``path:line`` so the message says where to look.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _grep(pattern: str, *paths: str, suffix: str | None = None) -> list[str]:
    """``grep -rnE pattern paths`` over text files, relative to ``SRC``."""
    regex = re.compile(pattern)
    hits = []
    for rel in paths:
        root = SRC / rel
        files = [root] if root.is_file() else sorted(root.rglob("*"))
        for path in files:
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            if suffix is not None and path.suffix != suffix:
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            for lineno, line in enumerate(text.splitlines(), 1):
                if regex.search(line):
                    hits.append(f"{path.relative_to(SRC.parent)}:{lineno}: {line.strip()}")
    return hits


class TestStrategyResolution:
    """The engine registry is the only strategy table."""

    def test_no_strategy_dict_outside_engine(self):
        hits = _grep(r"STRATEGIES\s*[:=]\s*\{", ".", suffix=".py")
        assert [h for h in hits if not h.startswith("repro/engine/")] == []

    def test_no_ad_hoc_strategy_dispatch(self):
        # Callers resolve strategies through mapper_from_spec directly.
        assert _grep(r"get_strategy|run_strategy", ".") == []

    def test_service_does_not_reach_into_experiments(self):
        # The service guards its work with repro.utils.guard, not the
        # experiment runner's internals.
        assert _grep(r"repro.experiments", "service") == []


def test_cli_and_lbsim_replay_go_through_engine():
    """repro-map and the LBSim replay map and measure through the engine."""
    hits = _grep(
        r"metrics_block\(|NetworkSimulator\(|get_strategy\(",
        "cli.py", "runtime/simulation.py",
    )
    assert hits == []


@pytest.mark.parametrize("rel", ["netsim", "cli.py"])
def test_one_des_model(rel):
    """No credit flow control, no trace replayer, no per-request DES knobs."""
    pattern = (
        r"credit|retry_timeout|saturation_depth|ecn_threshold"
        r"|TraceReplayer|jacobi_trace"
    )
    assert _grep(pattern, rel) == []


def test_partitioner_walks_csr_lists():
    """Phase-1 loops read ``csr_lists``, not a per-vertex accessor call."""
    assert _grep(r"\.neighbors\(|\.neighbor_slice\(", "partition") == []
