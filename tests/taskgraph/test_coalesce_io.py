"""Tests for graph coalescing and JSON serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TaskGraphError
from repro.taskgraph import (
    TaskGraph,
    coalesce,
    load_taskgraph,
    random_taskgraph,
    save_taskgraph,
    taskgraph_from_json,
    taskgraph_to_json,
)


class TestCoalesce:
    def test_simple_contraction(self, tiny_graph):
        # groups: {0,1} -> 0, {2,3} -> 1
        q = coalesce(tiny_graph, [0, 0, 1, 1])
        assert q.num_tasks == 2
        # cross edges: (1,2,20) and (0,3,100) -> 120 between the groups
        assert q.total_bytes == 120.0
        assert q.vertex_weights.tolist() == [3.0, 7.0]

    def test_identity_grouping(self, tiny_graph):
        q = coalesce(tiny_graph, [0, 1, 2, 3])
        assert list(q.edges()) == list(tiny_graph.edges())

    def test_intra_group_bytes_vanish(self):
        g = TaskGraph(3, [(0, 1, 50.0), (1, 2, 5.0)])
        q = coalesce(g, [0, 0, 1])
        assert q.total_bytes == 5.0

    def test_empty_group_rejected(self, tiny_graph):
        with pytest.raises(TaskGraphError, match="empty"):
            coalesce(tiny_graph, [0, 0, 1, 1], num_groups=3)

    def test_out_of_range_rejected(self, tiny_graph):
        with pytest.raises(TaskGraphError):
            coalesce(tiny_graph, [0, 0, 1, 5], num_groups=2)

    def test_wrong_shape_rejected(self, tiny_graph):
        with pytest.raises(TaskGraphError):
            coalesce(tiny_graph, [0, 1])

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_property_weight_and_cut_conservation(self, seed):
        rng = np.random.default_rng(seed)
        g = random_taskgraph(25, edge_prob=0.15, seed=int(seed))
        k = int(rng.integers(2, 6))
        groups = rng.integers(0, k, size=25)
        for gid in range(k):  # force non-empty
            groups[gid] = gid
        q = coalesce(g, groups, k)
        # Total load is conserved.
        assert q.total_vertex_weight == pytest.approx(g.total_vertex_weight)
        # Quotient bytes equal the inter-group cut of the original.
        u, v, w = g.edge_arrays()
        cut = w[groups[u] != groups[v]].sum()
        assert q.total_bytes == pytest.approx(cut)


class TestIO:
    def test_roundtrip_json(self, tiny_graph):
        g2 = taskgraph_from_json(taskgraph_to_json(tiny_graph))
        assert list(g2.edges()) == list(tiny_graph.edges())
        assert g2.vertex_weights.tolist() == tiny_graph.vertex_weights.tolist()

    def test_roundtrip_file(self, tiny_graph, tmp_path):
        path = tmp_path / "g.json"
        save_taskgraph(tiny_graph, path)
        g2 = load_taskgraph(path)
        assert list(g2.edges()) == list(tiny_graph.edges())

    def test_legacy_coords_key_is_ignored(self, tiny_graph):
        """Files written with per-task ``coords`` still load, unchanged."""
        payload = json.loads(taskgraph_to_json(tiny_graph))
        payload["coords"] = [[float(t)] for t in range(tiny_graph.num_tasks)]
        g2 = taskgraph_from_json(json.dumps(payload))
        assert g2.content_digest() == tiny_graph.content_digest()

    def test_rejects_garbage(self):
        with pytest.raises(TaskGraphError):
            taskgraph_from_json("not json at all {")

    def test_rejects_wrong_format(self):
        with pytest.raises(TaskGraphError):
            taskgraph_from_json('{"format": "something-else"}')

    @pytest.mark.parametrize("field", ["edges", "vertex_weights"])
    def test_rejects_non_finite_weights(self, field):
        # json.loads takes the NaN and Infinity literals json.dumps writes.
        doc = {"format": "repro-taskgraph-v1", "num_tasks": 2,
               "edges": [[0, 1, 1.0]], "vertex_weights": [1.0, 1.0]}
        for bad in (float("nan"), float("inf")):
            if field == "edges":
                doc["edges"] = [[0, 1, bad]]
            else:
                doc["vertex_weights"] = [bad, 1.0]
            with pytest.raises(TaskGraphError, match="finite"):
                taskgraph_from_json(json.dumps(doc))

    def test_rejects_malformed_payload(self):
        with pytest.raises(TaskGraphError):
            taskgraph_from_json(
                '{"format": "repro-taskgraph-v1", "num_tasks": 2}'
            )
