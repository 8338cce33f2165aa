"""Structured communication-pattern generators.

These are the benchmark programs of the paper:

* :func:`mesh2d_pattern` — the 2D Jacobi-like chare pattern (each task talks
  to its 4 mesh neighbors) used throughout Section 5,
* :func:`mesh3d_pattern` — the 3D Jacobi-like pattern of Table 1 (6 neighbors),
* :func:`ring_pattern` and :func:`all_to_all_pattern` — auxiliary patterns
  for tests and ablations.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import TaskGraphError
from repro.taskgraph.graph import TaskGraph
from repro.utils.validation import check_shape_volume

__all__ = [
    "mesh_pattern",
    "mesh2d_pattern",
    "mesh3d_pattern",
    "ring_pattern",
    "all_to_all_pattern",
]


def mesh_pattern(
    shape: Sequence[int],
    message_bytes: float = 1.0,
    periodic: bool = False,
    compute_load: float = 1.0,
) -> TaskGraph:
    """Tasks on an n-D grid, each communicating with its axis neighbors.

    ``message_bytes`` is the per-iteration traffic in each direction of a
    neighbor pair; since the task graph records *total* pairwise volume and
    Jacobi exchanges are symmetric, each undirected edge carries
    ``2 * message_bytes``. Boundary tasks simply have fewer edges (the
    paper: "three or two for boundary and corner chares") unless
    ``periodic`` adds wrap-around partners.
    """
    n = check_shape_volume(shape, TaskGraphError)
    shape = tuple(int(s) for s in shape)
    if message_bytes <= 0:
        raise TaskGraphError(f"message_bytes must be positive, got {message_bytes}")
    ids = np.arange(n).reshape(shape)
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for axis in range(len(shape)):
        us.append(ids.take(range(shape[axis] - 1), axis=axis).ravel())
        vs.append(ids.take(range(1, shape[axis]), axis=axis).ravel())
        if periodic and shape[axis] > 2:
            us.append(ids.take([shape[axis] - 1], axis=axis).ravel())
            vs.append(ids.take([0], axis=axis).ravel())
    u, v = np.concatenate(us), np.concatenate(vs)
    w = np.full(u.size, 2.0 * float(message_bytes))
    loads = np.full(n, float(compute_load))
    return TaskGraph.from_arrays(n, u, v, w, loads)


def mesh2d_pattern(rows: int, cols: int, message_bytes: float = 1.0, **kw) -> TaskGraph:
    """2D Jacobi-like pattern: the paper's main benchmark task graph."""
    return mesh_pattern((rows, cols), message_bytes, **kw)


def mesh3d_pattern(nx: int, ny: int, nz: int, message_bytes: float = 1.0, **kw) -> TaskGraph:
    """3D Jacobi-like pattern (Table 1: 8x8x8 elements, 6 neighbors each)."""
    return mesh_pattern((nx, ny, nz), message_bytes, **kw)


def ring_pattern(n: int, message_bytes: float = 1.0) -> TaskGraph:
    """n tasks in a cycle; the smallest nontrivial structured pattern."""
    if n < 3:
        raise TaskGraphError(f"ring needs >= 3 tasks, got {n}")
    u = np.arange(n)
    return TaskGraph.from_arrays(n, u, (u + 1) % n,
                                 np.full(n, 2.0 * float(message_bytes)))


def all_to_all_pattern(n: int, message_bytes: float = 1.0) -> TaskGraph:
    """Complete communication graph — the worst case for any mapper.

    With every pair communicating equally, *all* mappings have identical
    hop-bytes on a vertex-transitive topology; useful as a control case
    (mirrors the paper's dense LeanMD regime at virtualization ratio 180
    where "it is difficult for any strategy to reduce hop-bytes").
    """
    if n < 2:
        raise TaskGraphError(f"all-to-all needs >= 2 tasks, got {n}")
    u, v = np.triu_indices(n, 1)
    return TaskGraph.from_arrays(n, u, v,
                                 np.full(u.size, 2.0 * float(message_bytes)))
