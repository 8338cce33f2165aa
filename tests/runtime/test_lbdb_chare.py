"""Tests for the LB database and its dump file (the ``+LBDump`` analog)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TaskGraphError
from repro.runtime import LBDatabase
from repro.taskgraph import random_taskgraph


class TestLBDatabase:
    def test_record_and_snapshot(self):
        db = LBDatabase(3)
        db.record_comm(0, 1, 100.0)
        db.record_comm(1, 0, 50.0)  # merges into the same undirected pair
        g = db.to_taskgraph()
        assert g.vertex_weights.tolist() == [0.0, 0.0, 0.0]
        assert list(g.edges()) == [(0, 1, 150.0)]

    def test_self_comm_ignored(self):
        db = LBDatabase(2)
        db.record_comm(1, 1, 1000.0)
        assert db.to_taskgraph().num_edges == 0

    def test_validation(self):
        db = LBDatabase(2)
        with pytest.raises(TaskGraphError):
            db.record_comm(5, 1, 1.0)
        with pytest.raises(TaskGraphError):
            db.record_comm(0, 1, -1.0)
        with pytest.raises(TaskGraphError):
            LBDatabase(0)

    def test_from_taskgraph_roundtrip(self):
        g = random_taskgraph(10, edge_prob=0.3, seed=0)
        db = LBDatabase.from_taskgraph(g)
        g2 = db.to_taskgraph()
        assert list(g2.edges()) == list(g.edges())
        assert g2.vertex_weights.tolist() == g.vertex_weights.tolist()

    def test_dump_load_roundtrip(self, tmp_path):
        g = random_taskgraph(8, edge_prob=0.4, seed=2)
        db = LBDatabase.from_taskgraph(g, placement=np.arange(8) % 4)
        path = tmp_path / "dump.json"
        db.dump(path)
        db2 = LBDatabase.load(path)
        assert list(db2.to_taskgraph().edges()) == list(g.edges())
        # Loads, placement and step count survive: the re-dump is identical.
        db2.dump(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == path.read_text()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(TaskGraphError):
            LBDatabase.load(path)
        path.write_text('{"format": "other"}')
        with pytest.raises(TaskGraphError):
            LBDatabase.load(path)

    def test_placement_shape_checked(self):
        db = LBDatabase(3)
        with pytest.raises(TaskGraphError):
            db.set_placement([0, 1])
