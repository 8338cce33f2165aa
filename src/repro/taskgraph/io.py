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
    """Inverse of :func:`taskgraph_to_json`.

    The document is checked before anything is built: ``num_tasks`` and
    the edge endpoints must be JSON integers (not booleans) in range, and
    the weights JSON numbers. Anything else raises :class:`TaskGraphError`.
    """
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, or an integer past Python's digit
        # limit; RecursionError: nesting deeper than the stack.
        raise TaskGraphError(f"invalid task-graph JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise TaskGraphError(f"not a {_FORMAT} document")
    try:
        count, edges, weights = (payload[key] for key in (
            "num_tasks", "edges", "vertex_weights"))
    except KeyError as exc:
        raise TaskGraphError(f"malformed task-graph document: missing {exc}") from exc
    if not (isinstance(edges, list) and isinstance(weights, list)):
        raise TaskGraphError(
            "malformed task-graph document: edges and vertex_weights must be lists")
    # vertex_weights has one entry per task, which bounds num_tasks.
    n = _integer(count, "num_tasks", 1, len(weights) + 1)
    triples = []
    for edge in edges:
        if not (isinstance(edge, list) and len(edge) == 3):
            raise TaskGraphError(
                f"malformed task-graph document: edge {edge!r:.60} is not [a, b, bytes]")
        a, b, w = edge
        triples.append((_integer(a, "edge endpoint", 0, n),
                        _integer(b, "edge endpoint", 0, n),
                        _number(w, "edge bytes")))
    return TaskGraph(n, triples, [_number(w, "vertex weight") for w in weights])


def _integer(value, what: str, lo: int, hi: int) -> int:
    """``value`` if it is a JSON integer in ``[lo, hi)``."""
    if type(value) is not int or not lo <= value < hi:
        raise TaskGraphError(
            f"malformed task-graph document: {what} must be an integer in "
            f"[{lo}, {hi}), got {value!r:.60}")
    return value


def _number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number a float can hold."""
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            pass
    raise TaskGraphError(
        f"malformed task-graph document: {what} must be a number, "
        f"got {value!r:.60}")


def save_taskgraph(graph: TaskGraph, path: str | Path) -> None:
    """Write ``graph`` to ``path`` as JSON."""
    Path(path).write_text(taskgraph_to_json(graph))


def load_taskgraph(path: str | Path) -> TaskGraph:
    """Read a task graph previously written by :func:`save_taskgraph`."""
    return taskgraph_from_json(Path(path).read_text())
