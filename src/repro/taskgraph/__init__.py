"""Application models: weighted task graphs and generators.

The paper represents a parallel program as a weighted undirected *task graph*
``Gt = (Vt, Et)``: vertices are compute objects (or coalesced groups of
objects) carrying a computation weight, and edges carry the total bytes
communicated between their endpoints (the process-based model — no DAG
precedence).
"""

from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.patterns import (
    mesh2d_pattern,
    mesh3d_pattern,
    ring_pattern,
    all_to_all_pattern,
)
from repro.taskgraph.random_graphs import (
    random_taskgraph,
    geometric_taskgraph,
)
from repro.taskgraph.leanmd import leanmd_taskgraph
from repro.taskgraph.coalesce import coalesce
from repro.taskgraph.io import taskgraph_to_json, taskgraph_from_json, save_taskgraph, load_taskgraph

__all__ = [
    "TaskGraph",
    "mesh2d_pattern",
    "mesh3d_pattern",
    "ring_pattern",
    "all_to_all_pattern",
    "random_taskgraph",
    "geometric_taskgraph",
    "leanmd_taskgraph",
    "coalesce",
    "taskgraph_to_json",
    "taskgraph_from_json",
    "save_taskgraph",
    "load_taskgraph",
]
