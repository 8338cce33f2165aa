"""Smoke tests: every shipped example must run clean and print sane output."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "TopoLB" in out
        assert "hops/byte" in out
        # TopoLB reaches 1.0 on this instance.
        topolb_line = next(l for l in out.splitlines() if l.startswith("TopoLB "))
        assert "1.000" in topolb_line

    def test_leanmd_loadbalance(self):
        out = run_example("leanmd_loadbalance.py", "32")
        assert "TopoLB reduction over random placement" in out
        assert "RefineTopoLB" in out

    def test_network_contention(self):
        out = run_example("network_contention.py")
        assert "max link load" in out
        assert "random" in out and "TopoLB" in out

    def test_custom_machine(self):
        out = run_example("custom_machine.py")
        assert "bridge traffic" in out
        assert "torus(8x8)" in out

    def test_heterogeneous_machine(self):
        out = run_example("heterogeneous_machine.py")
        assert "uplink" in out
        assert "TopoLB" in out


@pytest.mark.parametrize(
    "name", ["quickstart.py", "leanmd_loadbalance.py",
             "network_contention.py", "custom_machine.py",
             "heterogeneous_machine.py"]
)
def test_examples_exist_and_have_docstrings(name):
    text = (EXAMPLES / name).read_text()
    assert text.startswith("#!/usr/bin/env python")
    assert '"""' in text
