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

from repro.mapping.base import Mapping
from repro.mapping.context import context_for
from repro.mapping.metrics import metrics_block
from repro.runtime.lbdb import LBDatabase
from repro.runtime.strategies import get_strategy
from repro.topology.base import Topology

__all__ = ["simulate_strategy", "replay_strategy", "compare_strategies"]


def simulate_strategy(
    database: LBDatabase | str | Path,
    topology: Topology,
    strategy: str,
    seed: int | None = None,
) -> dict[str, float]:
    """Replay ``database`` under ``strategy``; return mapping-quality metrics.

    ``database`` may be an in-memory :class:`LBDatabase` or a path to a dump
    file. The report contains hop-bytes, hops-per-byte, load imbalance and
    dilation statistics of the placement the strategy produced.
    """
    return replay_strategy(database, topology, strategy, seed)[0]


def replay_strategy(
    database: LBDatabase | str | Path,
    topology: Topology,
    strategy: str,
    seed: int | None = None,
    kernel: str | None = None,
) -> tuple[dict[str, float], Mapping]:
    """Like :func:`simulate_strategy` but also returns the produced mapping,
    so callers that need the placement (the CLI, the profiler's netsim
    replay) run the strategy exactly once. ``kernel`` is passed to the
    strategy's construction (``None`` = the default kernel)."""
    if not isinstance(database, LBDatabase):
        database = LBDatabase.load(database)
    graph = database.to_taskgraph()
    mapper = get_strategy(strategy, seed, kernel)
    ctx = context_for(graph, topology)
    mapping = mapper.map(graph, topology)
    placement = mapping.assignment
    # One shared-context metrics block instead of four separate distance
    # gathers; values are bitwise identical to the individual metric calls.
    block = metrics_block(graph, topology, placement, ctx=ctx)
    report = {
        "strategy": strategy,
        "num_objects": graph.num_tasks,
        "num_processors": topology.num_nodes,
        "hop_bytes": block["hop_bytes"],
        "hops_per_byte": block["hops_per_byte"],
        "load_imbalance": block["load_imbalance"],
        "max_dilation": block["max_dilation"],
        "mean_dilation": block["mean_dilation"],
    }
    # The paper evaluates hops-per-byte on the coalesced (group-level) graph
    # — intra-group bytes never enter the network and are excluded. Report
    # it whenever the strategy went through the two-phase pipeline.
    group_mapping = getattr(mapper, "last_group_mapping", None)
    if group_mapping is not None:
        report["group_hops_per_byte"] = group_mapping.hops_per_byte
        report["group_hop_bytes"] = group_mapping.hop_bytes
    return report, mapping


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
