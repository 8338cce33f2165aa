"""Livelock watchdog, bounded ``run(until=)``, and wedge detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.netsim.messages import Message
from repro.netsim.simulator import NetworkSimulator
from repro.topology import Mesh, Torus


class TestWatchdog:
    def _livelocked_sim(self, kernel):
        """A retry loop that can never succeed: the only DOR route dies
        mid-run, retransmits never back off (backoff 1.0) and never run out
        (absurd max_retries) — without a watchdog this spins forever."""
        sim = NetworkSimulator(Mesh((4,)), max_retries=10**9,
                               retry_backoff=1.0, retry_delay=2.0,
                               unroutable_policy="drop", stall_window=100.0,
                               kernel=kernel)
        sim.send(0, 3, 1000.0)
        sim.schedule_link_failure(0.05, 1, 2)
        return sim

    def test_livelock_raises_structured_error(self, kernel):
        with pytest.raises(SimulationError, match="livelock"):
            self._livelocked_sim(kernel).run()

    def test_livelock_error_names_oldest_message(self, kernel):
        with pytest.raises(SimulationError, match="message 0"):
            self._livelocked_sim(kernel).run()

    def test_watchdog_retires_cleanly_on_success(self, kernel):
        """A healthy run under a tight stall window completes normally and
        leaves no watchdog events behind."""
        sim = NetworkSimulator(Torus((4, 4)), stall_window=50.0, kernel=kernel)
        rng = np.random.default_rng(3)
        for _ in range(30):
            a, b = (int(x) for x in rng.integers(0, 16, size=2))
            sim.send(a, b, float(rng.uniform(10, 500)))
        sim.run()
        assert sim.stats.count == 30
        assert sim.queue.pending == 0

    def test_watchdog_tolerates_slow_but_live_progress(self, kernel):
        """Deliveries spaced wider than the event cadence but inside the
        stall window must not trip the detector."""
        sim = NetworkSimulator(Mesh((4,)), bandwidth=0.1,
                               stall_window=1e6, kernel=kernel)
        for i in range(5):
            sim.send(0, 3, 10_000.0, at=float(i) * 1e4)
        sim.run()
        assert sim.stats.count == 5


class TestRunUntil:
    def test_until_pauses_and_resumes(self, kernel):
        sim = NetworkSimulator(Mesh((4,)), bandwidth=1.0, kernel=kernel)
        msg = sim.send(0, 3, 1000.0)
        now = sim.run(until=2.0)
        assert now == 2.0
        assert msg.deliver_time is None
        assert sim.queue.pending > 0
        sim.run()
        assert msg.deliver_time is not None
        assert sim.stats.count == 1

    def test_until_past_completion_returns_deadline(self, kernel):
        sim = NetworkSimulator(Mesh((4,)), kernel=kernel)
        sim.send(0, 1, 10.0)
        end = sim.run(until=1e9)
        assert end == 1e9
        assert sim.stats.count == 1

    def test_until_does_not_trip_wedge_check(self, kernel):
        """Pausing with messages legitimately in flight is not a wedge."""
        sim = NetworkSimulator(Mesh((4,)), bandwidth=1.0, stall_window=1e6,
                               kernel=kernel)
        sim.send(0, 3, 1000.0)
        sim.run(until=2.0)  # must not raise
        assert sim.in_flight == 1
        sim.run()
        assert sim.in_flight == 0


class TestWedgeDetection:
    def test_drained_queue_with_undelivered_message_reported(self, kernel):
        """With a stall window armed, a queue that drains while a message
        is still undelivered raises, naming the count and the message."""
        sim = NetworkSimulator(Mesh((4,)), stall_window=10.0, kernel=kernel)
        # A message in the in-flight registry with no event to move it: a
        # stand-in for a lost progression event, under either body.
        lost = Message(0, 0, 3, 100.0, 0.0)
        sim._inflight[lost.msg_id] = (lost, None)
        with pytest.raises(SimulationError,
                           match=r"wedged.*1 undelivered.*message 0"):
            sim.run()

    def test_unbuffered_runs_never_wedge_checked(self, kernel):
        """The wedge check only arms for an explicit stall window — plain
        runs keep the seed's exact behavior."""
        sim = NetworkSimulator(Torus((4, 4)), kernel=kernel)
        sim.send(0, 5, 100.0)
        sim.run()
        assert sim.stats.count == 1
