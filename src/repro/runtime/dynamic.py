"""Dynamic load balancing over time: measure → balance → migrate → repeat.

The Charm++ model the paper's framework lives in: loads drift while the
program runs; periodically the runtime consults a strategy and *migrates*
objects, paying for every moved object's serialized state (the PUP
framework's job). This module provides:

* :class:`DriftingWorkload` — a synthetic application whose per-object loads
  follow a bounded multiplicative random walk (communication stays fixed, as
  the paper's persistent-communication model assumes),
* :func:`run_dynamic_lb` — the driver: runs ``steps`` measurement steps,
  invoking a balancer every ``lb_period`` steps, and records the trajectory
  of load imbalance, hop-bytes, and migration volume.

Balancers come in two flavors, matching the production trade-off:

* ``"full:<StrategyName>"`` — remap from scratch with a registry strategy
  (best placement, most migration),
* ``"incremental"`` — :class:`~repro.mapping.incremental.IncrementalRefineLB`
  (fewest moves that restore balance, topology-aware destinations).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.exceptions import MappingError, TaskGraphError
from repro.mapping.base import Mapping
from repro.mapping.context import context_for
from repro.mapping.incremental import IncrementalRefineLB
from repro.mapping.metrics import load_imbalance
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology
from repro.utils.rng import as_rng

__all__ = ["DriftingWorkload", "LBStepReport", "run_dynamic_lb"]


class DriftingWorkload:
    """A task graph whose vertex loads drift step to step.

    Loads follow ``load *= exp(sigma * N(0,1))``, clipped to a band around
    the initial value so the instance stays balanceable; the communication
    structure is fixed (the paper's "persistent processes which have stable
    communication patterns").
    """

    def __init__(self, base: TaskGraph, drift_sigma: float = 0.1,
                 band: float = 8.0, seed: int | np.random.Generator | None = 0):
        if drift_sigma < 0:
            raise TaskGraphError(f"drift_sigma must be >= 0, got {drift_sigma}")
        if band < 1.0:
            raise TaskGraphError(f"band must be >= 1.0, got {band}")
        self._base = base
        self._sigma = float(drift_sigma)
        self._band = float(band)
        self._rng = as_rng(seed)
        self._loads = base.vertex_weights.copy()
        self._initial = np.maximum(base.vertex_weights.copy(), 1e-12)

    @property
    def num_tasks(self) -> int:
        """Number of tasks (fixed across steps)."""
        return self._base.num_tasks

    @property
    def base(self) -> TaskGraph:
        """The underlying task graph (fixed edges; loads drift per step)."""
        return self._base

    def advance(self) -> TaskGraph:
        """Drift loads one step; return the current task graph snapshot."""
        factors = np.exp(self._sigma * self._rng.standard_normal(len(self._loads)))
        self._loads = np.clip(
            self._loads * factors,
            self._initial / self._band,
            self._initial * self._band,
        )
        return TaskGraph(self._base.num_tasks, self._base.edges(), self._loads)


@dataclasses.dataclass
class LBStepReport:
    """Metrics of one measurement step."""

    step: int
    balanced: bool            # did a balancer run this step?
    imbalance: float          # after any balancing
    hop_bytes: float
    migrated_tasks: int
    migration_bytes: float    # PUP'd state volume moved this step


def run_dynamic_lb(
    workload: DriftingWorkload,
    topology: Topology,
    balancer: str,
    steps: int,
    lb_period: int = 5,
    state_bytes_per_task: float | np.ndarray = 1024.0,
    imbalance_tol: float = 1.10,
    seed: int | None = 0,
) -> list[LBStepReport]:
    """Drive the measure/balance/migrate loop; return the step trajectory."""
    if steps < 1:
        raise MappingError(f"steps must be >= 1, got {steps}")
    if lb_period < 1:
        raise MappingError(f"lb_period must be >= 1, got {lb_period}")
    n = workload.num_tasks
    p = topology.num_nodes
    state_bytes = np.broadcast_to(
        np.asarray(state_bytes_per_task, dtype=np.float64), (n,)
    )

    incremental: IncrementalRefineLB | None = None
    full_strategy: str | None = None
    if balancer == "incremental":
        incremental = IncrementalRefineLB(imbalance_tol=imbalance_tol)
    elif balancer.startswith("full:"):
        full_strategy = balancer.split(":", 1)[1]
    else:
        raise MappingError(
            f"balancer must be 'incremental' or 'full:<StrategyName>', got {balancer!r}"
        )

    # Communication is persistent (fixed edges), so hop-bytes of every step
    # routes through one shared context over the base graph instead of
    # re-deriving edge arrays from each step's load snapshot. The per-step
    # snapshots dedup the same edge list in the same order, so the values
    # are bitwise identical.
    ctx = context_for(workload.base, topology)

    placement = np.arange(n, dtype=np.int64) % p  # round-robin start
    reports: list[LBStepReport] = []
    for step in range(steps):
        graph = workload.advance()
        migrated = np.zeros(n, dtype=bool)
        balanced = step % lb_period == 0
        if balanced:
            if incremental is not None:
                mapping, migrated = incremental.rebalance(
                    Mapping(graph, topology, placement))
                new_placement = np.asarray(mapping.assignment, dtype=np.int64)
            else:
                from repro.engine.specs import mapper_from_spec
                from repro.runtime.lbdb import LBDatabase

                db = LBDatabase.from_taskgraph(graph, placement)
                mapper = mapper_from_spec(full_strategy, seed)
                new_placement = np.asarray(
                    mapper.map(db.to_taskgraph(), topology).assignment.copy(),
                    dtype=np.int64,
                )
                migrated = new_placement != placement
            placement = new_placement
        reports.append(
            LBStepReport(
                step=step,
                balanced=balanced,
                imbalance=load_imbalance(graph, topology, placement),
                hop_bytes=ctx.hop_bytes(placement),
                migrated_tasks=int(migrated.sum()),
                migration_bytes=float(state_bytes[migrated].sum()),
            )
        )
    return reports
