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
    failed_nodes: tuple[int, ...] = ()  # processors that died this step
    # hop-bytes degradation caused by this step's failures: cost right after
    # evacuating the victims minus cost just before the failure (same loads)
    hop_bytes_delta: float = 0.0


def _evacuate_tasks(
    graph: TaskGraph,
    dist: np.ndarray,
    placement: np.ndarray,
    victims: np.ndarray,
    alive: np.ndarray,
) -> None:
    """Move each victim task onto a surviving processor, in place.

    Greedy first-order choice, in ascending task order: each victim goes to
    the surviving processor minimizing the hop-bytes of its edges (neighbors
    at their current placement), ties broken toward the least-loaded
    processor, then the lowest id — fully deterministic.
    """
    weights = graph.vertex_weights
    alive_ids = np.flatnonzero(alive)
    loads = np.bincount(placement, weights=weights, minlength=dist.shape[0])
    for t in victims:
        t = int(t)
        nbrs, wts = graph.neighbor_slice(t)
        if len(nbrs):
            cost = wts @ dist[placement[nbrs]][:, alive_ids]
        else:
            cost = np.zeros(len(alive_ids))
        pick = np.lexsort((alive_ids, loads[alive_ids], cost))[0]
        dst = int(alive_ids[pick])
        loads[placement[t]] -= weights[t]
        loads[dst] += weights[t]
        placement[t] = dst


def run_dynamic_lb(
    workload: DriftingWorkload,
    topology: Topology,
    balancer: str,
    steps: int,
    lb_period: int = 5,
    state_bytes_per_task: float | np.ndarray = 1024.0,
    imbalance_tol: float = 1.10,
    seed: int | None = 0,
    node_failures: dict[int, int | list[int] | tuple[int, ...]] | None = None,
) -> list[LBStepReport]:
    """Drive the measure/balance/migrate loop; return the step trajectory.

    ``node_failures`` maps step number -> processor id(s) failing at the
    start of that step. A failed processor's tasks are *evacuated*: an
    incremental refine pass moves each one to the surviving processor where
    its communication costs the fewest hop-bytes (counted as migrations —
    restart state must move like any PUP'd object). Later balancing runs
    over the survivors only; the per-step report records which nodes died
    and the hop-bytes degradation the failure caused.
    """
    if steps < 1:
        raise MappingError(f"steps must be >= 1, got {steps}")
    if lb_period < 1:
        raise MappingError(f"lb_period must be >= 1, got {lb_period}")
    n = workload.num_tasks
    p = topology.num_nodes
    state_bytes = np.broadcast_to(
        np.asarray(state_bytes_per_task, dtype=np.float64), (n,)
    )

    failures_at: dict[int, tuple[int, ...]] = {}
    if node_failures:
        for step_no, nodes in node_failures.items():
            step_no = int(step_no)
            if not 0 <= step_no < steps:
                raise MappingError(
                    f"node failure scheduled at step {step_no}, outside "
                    f"[0, {steps})"
                )
            if isinstance(nodes, (int, np.integer)):
                nodes = (int(nodes),)
            nodes = tuple(int(v) for v in nodes)
            for v in nodes:
                if not 0 <= v < p:
                    raise MappingError(
                        f"failing node {v} out of range [0, {p})"
                    )
            failures_at[step_no] = nodes

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

    from repro import obs

    # Communication is persistent (fixed edges), so hop-bytes of every step
    # routes through one shared context over the base graph instead of
    # re-deriving edge arrays from each step's load snapshot. The per-step
    # snapshots dedup the same edge list in the same order, so the values
    # are bitwise identical.
    ctx = context_for(workload.base, topology)
    dist = ctx.distance_matrix(np.float64)
    alive = np.ones(p, dtype=bool)
    any_failed = False

    placement = np.arange(n, dtype=np.int64) % p  # round-robin start
    reports: list[LBStepReport] = []
    for step in range(steps):
        graph = workload.advance()
        migrated = np.zeros(n, dtype=bool)

        # --- node failures fire at the start of the step -------------------
        failed_now = failures_at.get(step, ())
        hb_delta = 0.0
        if failed_now:
            hb_before = ctx.hop_bytes(placement)
            for v in failed_now:
                alive[v] = False
            if not alive.any():
                raise MappingError("every processor has failed")
            any_failed = True
            victims = np.flatnonzero(~alive[placement])
            if victims.size:
                placement = placement.copy()
                _evacuate_tasks(graph, dist, placement, victims, alive)
                migrated[victims] = True
            hb_delta = ctx.hop_bytes(placement) - hb_before
            prof = obs.active()
            if prof is not None:
                prof.count("faults.injected", len(failed_now))
                prof.count("runtime.evacuated_tasks", int(victims.size))
                prof.event(
                    "runtime.node_failed",
                    step=step,
                    nodes=list(failed_now),
                    evacuated=int(victims.size),
                    hop_bytes_delta=float(hb_delta),
                )

        balanced = step % lb_period == 0
        if balanced:
            if incremental is not None:
                mapping, mig = incremental.rebalance(
                    Mapping(graph, topology, placement),
                    allowed=alive if any_failed else None,
                )
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
                # Registry strategies remap over the pristine machine; any
                # task they put on a dead processor is evacuated right away
                # (and pays migration for it).
                if any_failed:
                    stranded = np.flatnonzero(~alive[new_placement])
                    if stranded.size:
                        _evacuate_tasks(graph, dist, new_placement, stranded, alive)
                mig = new_placement != placement
            migrated |= mig
            placement = new_placement
        reports.append(
            LBStepReport(
                step=step,
                balanced=balanced,
                imbalance=load_imbalance(graph, topology, placement),
                hop_bytes=ctx.hop_bytes(placement),
                migrated_tasks=int(migrated.sum()),
                migration_bytes=float(state_bytes[migrated].sum()),
                failed_nodes=tuple(failed_now),
                hop_bytes_delta=float(hb_delta),
            )
        )
    return reports
