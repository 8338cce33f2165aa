"""Offline strategy replay — the ``+LBSim`` analog (Section 5.1).

A load scenario captured once (an :class:`~repro.runtime.lbdb.LBDatabase`,
possibly read from a dump file) is replayed under one or many strategies on
the same machine, and mapping-quality metrics are reported. Because every
strategy sees the identical database, comparisons are free of the
"non-deterministic interleaving of events" the paper calls out as the reason
actual re-runs can't be compared directly.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine.core import MappingEngine, MappingRequest
from repro.runtime.lbdb import LBDatabase
from repro.topology.base import Topology

__all__ = ["simulate_strategy", "compare_strategies"]


def simulate_strategy(
    database: LBDatabase | str | Path,
    topology: Topology,
    strategy: str,
    seed: int | None = None,
) -> dict[str, float]:
    """Replay ``database`` under ``strategy``; return mapping-quality metrics.

    ``database`` may be an in-memory :class:`LBDatabase` or a path to a dump
    file. The replay is one :meth:`~repro.engine.MappingEngine.run`, so the
    report carries the engine's canonical metrics block (hop-bytes,
    hops-per-byte, load imbalance, dilation statistics, plus the paper's
    group-level hop-bytes for pipeline strategies) under the same keys and
    values as any other entry point.
    """
    if not isinstance(database, LBDatabase):
        database = LBDatabase.load(database)
    result = MappingEngine().run(MappingRequest(
        graph=database.to_taskgraph(), topology=topology, mapper=strategy,
        seed=seed,
    ))
    return {
        "strategy": strategy,
        "num_objects": result.metadata["num_objects"],
        "num_processors": result.metadata["num_processors"],
        **result.metrics,
    }


def compare_strategies(
    database: LBDatabase | str | Path,
    topology: Topology,
    strategies: list[str],
    seed: int | None = None,
) -> list[dict[str, float]]:
    """Replay the same database under several strategies (one report each)."""
    if not isinstance(database, LBDatabase):
        database = LBDatabase.load(database)
    return [simulate_strategy(database, topology, s, seed) for s in strategies]
