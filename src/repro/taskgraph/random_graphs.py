"""Random task-graph generators for tests, property checks and ablations."""

from __future__ import annotations

import numpy as np

from repro.exceptions import TaskGraphError
from repro.taskgraph.graph import TaskGraph
from repro.utils.rng import as_rng

__all__ = ["random_taskgraph", "geometric_taskgraph"]


def _ensure_connected_edges(n: int, edges: list[tuple[int, int, float]],
                            rng: np.random.Generator, weight: float) -> None:
    """Append a random spanning chain so the graph is connected.

    Partitioners and some refiners assume a connected task graph; a random
    permutation chain adds at most n-1 edges without biasing structure much.
    """
    order = rng.permutation(n)
    existing = {(min(a, b), max(a, b)) for a, b, _ in edges}
    for a, b in zip(order[:-1], order[1:]):
        key = (min(int(a), int(b)), max(int(a), int(b)))
        if key not in existing:
            edges.append((key[0], key[1], weight))
            existing.add(key)


def random_taskgraph(
    n: int,
    edge_prob: float = 0.05,
    mean_bytes: float = 1024.0,
    seed: int | np.random.Generator | None = None,
    connected: bool = True,
) -> TaskGraph:
    """Erdős–Rényi communication graph with log-normal byte weights.

    Byte volumes in real traces are heavy-tailed; log-normal weights give the
    mappers a non-uniform signal to exploit.
    """
    if n < 2:
        raise TaskGraphError(f"need >= 2 tasks, got {n}")
    if not 0.0 <= edge_prob <= 1.0:
        raise TaskGraphError(f"edge_prob must be in [0,1], got {edge_prob}")
    rng = as_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < edge_prob
    ii, jj = iu[mask], ju[mask]
    weights = rng.lognormal(mean=np.log(max(mean_bytes, 1e-9)), sigma=1.0, size=len(ii))
    edges = [(int(a), int(b), float(w)) for a, b, w in zip(ii, jj, weights)]
    if connected:
        _ensure_connected_edges(n, edges, rng, float(mean_bytes))
    loads = rng.uniform(0.5, 1.5, size=n)
    return TaskGraph(n, edges, loads)


def geometric_taskgraph(
    n: int,
    radius: float = 0.15,
    mean_bytes: float = 1024.0,
    seed: int | np.random.Generator | None = None,
) -> TaskGraph:
    """Random geometric communication graph (unit square, distance-decaying bytes).

    Models physically local interactions (particles, grid fragments): tasks
    within ``radius`` communicate, with volume shrinking linearly to zero at
    the cutoff — structure a topology-aware mapper can exploit strongly.
    """
    if n < 2:
        raise TaskGraphError(f"need >= 2 tasks, got {n}")
    if radius <= 0:
        raise TaskGraphError(f"radius must be positive, got {radius}")
    rng = as_rng(seed)
    pos = rng.random((n, 2))
    iu, ju = np.triu_indices(n, k=1)
    d = np.hypot(pos[iu, 0] - pos[ju, 0], pos[iu, 1] - pos[ju, 1])
    mask = d < radius
    vols = mean_bytes * (1.0 - d[mask] / radius) + 1.0
    edges = [(int(a), int(b), float(w)) for a, b, w in zip(iu[mask], ju[mask], vols)]
    _ensure_connected_edges(n, edges, rng, 1.0)
    return TaskGraph(n, edges)
