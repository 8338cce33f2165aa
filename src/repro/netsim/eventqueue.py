"""Deterministic discrete-event queue.

A thin wrapper over :mod:`heapq` holding ``(time, sequence, fn, args)``
entries; firing an event calls ``fn(*args)``. Hot callers schedule a bound
method and its arguments with :meth:`EventQueue.call`, so no closure is
built per event; :meth:`EventQueue.schedule` keeps the zero-argument
callback form (stored with ``args == ()``). The monotone sequence number
makes simultaneous events fire in scheduling order, so every simulation is
bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable

from repro.exceptions import SimulationError

__all__ = ["EventQueue", "schedule_error"]


def schedule_error(time: float, now: float) -> SimulationError:
    """The error for an event at ``time`` scheduled at ``now`` when
    ``not now <= time < inf``: a NaN or infinite time, or a causality
    violation."""
    if not math.isfinite(time):
        return SimulationError(f"cannot schedule an event at t={time}")
    return SimulationError(
        f"causality violation: scheduling at t={time} < now={now}"
    )


class EventQueue:
    """Time-ordered callback queue with deterministic tie-breaking."""

    def __init__(self):
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        #: Current simulation time (time of the last fired event).
        self.now = 0.0
        self._processed = 0

    @property
    def pending(self) -> int:
        """Number of events not yet fired."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Number of events fired so far."""
        return self._processed

    def call(self, time: float, fn: Callable[..., None], *args) -> None:
        """Fire ``fn(*args)`` at simulation ``time`` (a float).

        Scheduling into the past (a causality violation) or at a
        non-finite time (a NaN, or a clock that overflowed) raises
        :class:`~repro.exceptions.SimulationError`.
        """
        if not self.now <= time < math.inf:  # also true for NaN
            raise schedule_error(time, self.now)
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Fire ``callback()`` at simulation ``time`` (see :meth:`call`)."""
        self.call(float(time), callback)

    def run(self, max_events: int | None = None,
            until: float | None = None) -> float:
        """Fire events until the queue drains; return the final time.

        ``max_events`` bounds how many events fire; ``until`` is a simulation
        deadline — events scheduled strictly after it stay queued, and the
        clock advances to ``until`` so a caller can drain a runaway
        simulation in bounded slices (the watchdog discipline: run to a
        deadline, inspect progress, decide whether to continue). Both limits
        may be combined; whichever trips first stops the run.
        """
        heap = self._heap
        pop = heapq.heappop
        limit = math.inf if max_events is None else max_events
        deadline = math.inf if until is None else until
        fired = 0
        while heap and fired < limit and not heap[0][0] > deadline:
            time, _seq, fn, args = pop(heap)
            self.now = time
            self._processed += 1
            fired += 1
            fn(*args)
        if (
            until is not None
            and self.now < until
            and (not heap or heap[0][0] > until)
        ):
            # Nothing left at or before the deadline: the interval is quiet,
            # so the clock legitimately advances to it (not past a pending
            # event — a max_events stop with earlier work queued stays put).
            self.now = until
        return self.now

    def step(self) -> bool:
        """Fire exactly one event; False when the queue is empty."""
        before = self._processed
        self.run(1)
        return self._processed != before
