"""Task-graph (de)serialization.

This is the stand-in for Charm++'s ``+LBDump`` files: a load scenario written
once and replayed under many strategies (Section 5.1). The format is plain
JSON so dumps are diffable and portable.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.exceptions import TaskGraphError
from repro.taskgraph.graph import TaskGraph

__all__ = ["taskgraph_to_json", "taskgraph_from_json", "save_taskgraph", "load_taskgraph"]

_FORMAT = "repro-taskgraph-v1"


def taskgraph_to_json(graph: TaskGraph) -> str:
    """Serialize ``graph`` to a JSON string."""
    return json.dumps({
        "format": _FORMAT,
        "num_tasks": graph.num_tasks,
        "vertex_weights": [float(w) for w in graph.vertex_weights],
        "edges": [[a, b, w] for a, b, w in graph.edges()],
    })


def taskgraph_from_json(text: str) -> TaskGraph:
    """Inverse of :func:`taskgraph_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TaskGraphError(f"invalid task-graph JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise TaskGraphError(f"not a {_FORMAT} document")
    try:
        return TaskGraph(
            int(payload["num_tasks"]),
            [(int(a), int(b), float(w)) for a, b, w in payload["edges"]],
            [float(w) for w in payload["vertex_weights"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TaskGraphError(f"malformed task-graph document: {exc}") from exc


def save_taskgraph(graph: TaskGraph, path: str | Path) -> None:
    """Write ``graph`` to ``path`` as JSON."""
    Path(path).write_text(taskgraph_to_json(graph))


def load_taskgraph(path: str | Path) -> TaskGraph:
    """Read a task graph previously written by :func:`save_taskgraph`."""
    return taskgraph_from_json(Path(path).read_text())
