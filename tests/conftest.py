"""Shared fixtures for the repro test suite."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from repro import Mesh, TaskGraph, Torus, mesh2d_pattern
from repro.service.daemon import _serve_batch


@pytest.fixture
def torus8x8() -> Torus:
    return Torus((8, 8))


@pytest.fixture
def mesh4cube() -> Mesh:
    return Mesh((4, 4, 4))


@pytest.fixture
def pattern8x8() -> TaskGraph:
    return mesh2d_pattern(8, 8, message_bytes=1024)


@pytest.fixture
def tiny_graph() -> TaskGraph:
    """4 tasks in a weighted path 0-1-2-3 plus a heavy 0-3 chord."""
    return TaskGraph(
        4,
        [(0, 1, 10.0), (1, 2, 20.0), (2, 3, 30.0), (0, 3, 100.0)],
        vertex_weights=[1.0, 2.0, 3.0, 4.0],
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def serve_in_pool():
    """Run requests through the service's batch worker in a 2-process pool.

    Returns ``run(requests)``, which submits each request as its own batch
    and gives back one outcome per request, in order. Workers are spawned,
    so they start from fresh caches.
    """

    def run(requests):
        spawn = get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
            futures = [pool.submit(_serve_batch, [request], None)
                       for request in requests]
            return [future.result()[0] for future in futures]

    return run
