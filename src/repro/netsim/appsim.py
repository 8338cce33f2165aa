"""Trace-driven replay of iterative Jacobi-style applications.

The paper's Sections 5.3/5.4 run a benchmark where every chare computes,
sends a message to each of its task-graph neighbors, and starts the next
iteration once its own compute is done *and* all neighbor messages of the
current iteration have arrived. This module replays exactly that dependency
structure through a :class:`~repro.netsim.simulator.NetworkSimulator` under
any task mapping, so the same program can be re-timed under different
mappings and link bandwidths — the BigNetSim workflow.

Tasks co-located on one processor exchange messages at the local latency and
compute concurrently (the experiments of interest are bijective mappings
where each processor hosts exactly one task, so compute serialization across
co-located tasks is out of scope and documented as such).
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from functools import partial

import numpy as np

from repro.exceptions import SimulationError
from repro.mapping.base import Mapping
from repro.netsim.simulator import NetworkSimulator

__all__ = ["IterativeApplication", "AppResult", "replay_closed_loop"]


@dataclasses.dataclass
class AppResult:
    """Outcome of one replay."""

    total_time: float                 # time the last task finished, us
    iterations: int
    mean_message_latency: float       # us
    max_message_latency: float        # us
    messages_delivered: int
    hops_per_byte: float              # observed on delivered traffic
    iteration_finish_times: np.ndarray  # time the k-th iteration fully completed

    @property
    def time_per_iteration(self) -> float:
        """Average wall-clock (simulated) time per iteration, us."""
        return self.total_time / self.iterations if self.iterations else 0.0

    @property
    def iteration_times(self) -> np.ndarray:
        """Per-iteration durations (us): the barrier-synchronized tails.

        Each entry is the time between consecutive global iteration
        completions — the quantity a bulk-synchronous application actually
        waits on, dominated by the slowest message of the round. The tail of
        this distribution (not the mean message latency) is where contention
        hurts; :func:`repro.netsim.stats.tail_summary` reports it.
        """
        if len(self.iteration_finish_times) == 0:
            return np.zeros(0, dtype=np.float64)
        return np.diff(self.iteration_finish_times,
                       prepend=0.0).astype(np.float64)


class IterativeApplication:
    """Jacobi-style compute/communicate loop over a mapped task graph.

    Parameters
    ----------
    mapping:
        Task placement (drives which messages cross which links).
    simulator:
        The network to replay through. One application per simulator.
    iterations:
        Number of compute/communicate rounds.
    message_bytes:
        Per-neighbor per-iteration message size. ``None`` derives it from the
        task graph: each undirected edge of weight ``w`` carries ``w/2`` per
        direction per iteration (matching the pattern generators, which store
        ``2 * message_bytes`` per edge); a zero-weight edge carries no
        traffic, so it sends no message and no task waits on it.
    compute_time:
        Per-iteration compute cost in microseconds (scalar, or per-task
        array). The paper keeps this low so communication dominates.
    """

    def __init__(
        self,
        mapping: Mapping,
        simulator: NetworkSimulator,
        iterations: int,
        message_bytes: float | None = None,
        compute_time: float | np.ndarray = 1.0,
    ):
        if iterations < 1:
            raise SimulationError(f"iterations must be >= 1, got {iterations}")
        self._mapping = mapping
        self._sim = simulator
        self._iterations = int(iterations)
        graph = mapping.graph
        n = graph.num_tasks

        compute = np.broadcast_to(
            np.asarray(compute_time, dtype=np.float64), (n,)
        )
        if (compute < 0).any():
            raise SimulationError("compute_time must be non-negative")

        # Per-task outgoing message sizes, aligned with the CSR neighbor
        # lists of the edges that carry traffic. The per-message state below
        # is kept in Python lists: the replay reads it one element at a time.
        indptr, indices, weights = graph.csr_arrays()
        if message_bytes is None:
            sends = weights > 0
            indptr = np.concatenate(([0], np.cumsum(sends)))[indptr]
            indices, sizes = indices[sends], weights[sends] / 2.0
        else:
            if message_bytes <= 0:
                raise SimulationError(f"message_bytes must be positive, got {message_bytes}")
            sizes = np.full_like(weights, float(message_bytes))
        self._compute = compute.tolist()
        self._indptr, self._indices = indptr.tolist(), indices.tolist()
        self._msg_sizes = sizes.tolist()
        self._assign = mapping.assignment.tolist()

        # Execution state. Edges are symmetric, so a task receives one
        # message per neighbour it sends to.
        self._cur_iter = [0] * n
        self._compute_done = [False] * n
        self._arrived: list[defaultdict[int, int]] = [defaultdict(int) for _ in range(n)]
        self._expected = np.diff(indptr).tolist()
        self._finished = 0
        self._iter_remaining = [n] * self._iterations
        self._iter_finish = np.zeros(self._iterations, dtype=np.float64)
        self._ran = False

    # ------------------------------------------------------------------ run
    def start(self) -> None:
        """Seed the application's initial events without running the queue.

        For co-scheduling studies several applications may share one
        simulator: ``start()`` each of them, drive ``simulator.run()`` once,
        then collect each one's :meth:`result`.
        """
        if self._ran:
            raise SimulationError("IterativeApplication may only be started once")
        self._ran = True
        for t in range(self._mapping.graph.num_tasks):
            self._begin_compute(t)

    def result(self) -> AppResult:
        """Timing results; valid once the simulator's queue has drained."""
        n = self._mapping.graph.num_tasks
        if not self._ran:
            raise SimulationError("application was never started")
        if self._finished != n:
            raise SimulationError(
                f"deadlock: only {self._finished}/{n} tasks finished "
                "(dependency graph inconsistent, or the simulator has not run)"
            )
        stats = self._sim.stats
        return AppResult(
            total_time=float(self._iter_finish[-1]),
            iterations=self._iterations,
            mean_message_latency=stats.mean_latency,
            max_message_latency=stats.max_latency,
            messages_delivered=stats.count,
            hops_per_byte=stats.hops_per_byte,
            iteration_finish_times=self._iter_finish.copy(),
        )

    def run(self) -> AppResult:
        """Replay the application to completion and return timing results."""
        self.start()
        self._sim.run()
        return self.result()

    # ------------------------------------------------------------- mechanics
    def _begin_compute(self, task: int) -> None:
        self._compute_done[task] = False
        self._sim.queue.call(
            self._sim.now + self._compute[task], self._compute_finished, task
        )

    def _compute_finished(self, task: int) -> None:
        """Compute phase over: emit this iteration's messages, maybe advance."""
        self._compute_done[task] = True
        k = self._cur_iter[task]
        assign = self._assign
        src_proc = assign[task]
        for idx in range(self._indptr[task], self._indptr[task + 1]):
            nbr = self._indices[idx]
            self._sim.send(
                src_proc,
                assign[nbr],
                self._msg_sizes[idx],
                on_delivery=partial(self._received, nbr, k),
            )
        self._maybe_advance(task)

    def _received(self, dst_task: int, iteration: int, _msg) -> None:
        """Delivery callback of one message to ``dst_task``."""
        self._arrived[dst_task][iteration] += 1
        self._maybe_advance(dst_task)

    def _maybe_advance(self, task: int) -> None:
        """Advance to the next iteration when compute + all receives are in."""
        k = self._cur_iter[task]
        if not self._compute_done[task]:
            return
        if self._arrived[task][k] < self._expected[task]:
            return
        # Iteration k complete for this task.
        del self._arrived[task][k]
        self._iter_remaining[k] -= 1
        if self._iter_remaining[k] == 0:
            self._iter_finish[k] = self._sim.now
        if k + 1 < self._iterations:
            self._cur_iter[task] = k + 1
            self._begin_compute(task)
        else:
            self._finished += 1


def replay_closed_loop(
    mapping: Mapping, iterations: int, **sim_kwargs
) -> tuple[NetworkSimulator, AppResult]:
    """Replay ``iterations`` Jacobi rounds of ``mapping`` through a new
    :class:`~repro.netsim.simulator.NetworkSimulator` built from
    ``sim_kwargs``; return the simulator (for link and tail summaries) and
    the application's result.

    With ``buffer_bytes`` set the replay is buffered. The Jacobi loop is
    closed — every task waits on its neighbour messages — so a finally
    dropped message would wedge it: retransmission is made persistent
    (``max_retries`` defaults to 64; the closed loop self-limits, so retries
    drain) and the unroutable backstop drops and counts instead of raising.
    """
    if sim_kwargs.get("buffer_bytes") is not None:
        sim_kwargs.setdefault("max_retries", 64)
        sim_kwargs["unroutable_policy"] = "drop"
    sim = NetworkSimulator(mapping.topology, **sim_kwargs)
    result = IterativeApplication(mapping, sim, iterations=iterations).run()
    return sim, result
