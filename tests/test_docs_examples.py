"""Pin the worked examples in the documentation to the implementation."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import Mesh, TaskGraph, TopoLB, Torus, mesh2d_pattern, RandomMapper, expected_random_hops_per_byte

ROOT = Path(__file__).resolve().parent.parent


class TestAlgorithmsDoc:
    def test_worked_micro_example(self):
        """docs/ALGORITHMS.md: A-10-B-1-C on a 3-processor line -> HB = 11,
        with B at the center."""
        g = TaskGraph(3, [(0, 1, 10.0), (1, 2, 1.0)])
        topo = Mesh((3,))
        mapping = TopoLB().map(g, topo)
        assert mapping.assignment[1] == 1
        assert mapping.hop_bytes == pytest.approx(11.0)


class TestReadmeQuickstart:
    def test_quickstart_numbers(self):
        """README quickstart: TopoLB -> 1.0, random ~7.9, E[random] = 8.0."""
        machine = Torus((16, 16))
        app = mesh2d_pattern(16, 16, message_bytes=4096)
        assert TopoLB().map(app, machine).hops_per_byte == pytest.approx(1.0)
        rand = RandomMapper(seed=0).map(app, machine).hops_per_byte
        assert rand == pytest.approx(8.0, rel=0.1)
        assert expected_random_hops_per_byte(machine) == pytest.approx(8.0)


class TestMultilevelDoc:
    def test_partial_contraction_lands_on_capacity(self):
        """docs/ALGORITHMS.md: 64 tasks onto 61 healthy processors merges
        exactly 3 pairs, not a full halving."""
        from repro.partition.coarsening import coarsen_toward

        coarse, fine2coarse = coarsen_toward(mesh2d_pattern(8, 8), 61, seed=0)
        assert coarse.num_tasks == 61
        assert (fine2coarse.max() + 1) == 61

    def test_bench_artifact_backs_doc_claims(self):
        """docs/ALGORITHMS.md cites the recorded multilevel bench artifact:
        >= 10^5 tasks, 4096 processors, >= 2x better than random, < 60 s."""
        import json

        doc = json.loads(
            (ROOT / "benchmarks" / "BENCH_multilevel_torus16x16x16.json")
            .read_text()
        )
        assert doc["num_tasks"] >= 100_000
        assert doc["num_processors"] == 4096
        assert doc["random_ratio"] >= 2.0
        assert doc["elapsed_seconds"] < doc["time_budget_seconds"]


class TestDocsPresence:
    @pytest.mark.parametrize(
        "path", ["README.md", "DESIGN.md", "EXPERIMENTS.md",
                 "docs/ALGORITHMS.md", "docs/ROBUSTNESS.md",
                 "docs/PERFORMANCE.md", "docs/OBSERVABILITY.md"]
    )
    def test_docs_exist_and_substantial(self, path):
        text = (ROOT / path).read_text()
        assert len(text) > 2000

    def test_design_lists_every_experiment(self):
        text = (ROOT / "DESIGN.md").read_text()
        for exp in ("table1", "fig1_2", "fig3_4", "fig5", "fig7_8", "fig9", "fig10_11"):
            assert exp in text

    def test_experiments_records_paper_numbers(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        assert "2.67" in text  # Table 1's headline ratio
        assert "hops" in text


class TestRobustnessDoc:
    def test_doc_names_real_counters(self):
        text = (ROOT / "docs/ROBUSTNESS.md").read_text()
        for name in ("netsim.buffer_drops", "netsim.retransmits",
                     "netsim.dropped",
                     "REPRO_EXPERIMENTS_FAIL"):
            assert name in text


class TestArchitectureDoc:
    def test_lifecycle_request_runs_as_written(self):
        """docs/ARCHITECTURE.md's request-lifecycle snippet is a valid
        request, and its result's metadata replays through the recorded
        fields the doc names."""
        import re

        from repro.engine import MappingEngine, MappingRequest

        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        snippet = re.search(r"^MappingRequest\(.*?\)$", text,
                            re.MULTILINE | re.DOTALL).group(0)
        request = eval(snippet, {"MappingRequest": MappingRequest})
        result = MappingEngine().run(request)
        meta = result.metadata
        again = MappingEngine().run(MappingRequest(
            graph=request.graph, topology=meta["topology"],
            mapper=meta["spec"], seed=meta["seed"]))
        assert (again.assignment == result.assignment).all()
        assert meta["command"].startswith("repro-map --taskgraph ")
