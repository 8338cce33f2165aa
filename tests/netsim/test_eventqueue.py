"""Tests for the DES event queue."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.netsim import EventQueue


class TestEventQueue:
    def test_initial_state(self):
        q = EventQueue()
        assert q.now == 0.0
        assert q.pending == 0
        assert q.processed == 0

    def test_fires_in_time_order(self):
        q = EventQueue()
        fired = []
        for t in (3.0, 1.0, 2.0):
            q.schedule(t, lambda t=t: fired.append(t))
        assert q.run() == 3.0
        assert fired == [1.0, 2.0, 3.0]

    def test_simultaneous_events_fire_in_schedule_order(self):
        q = EventQueue()
        fired = []
        for i in range(5):
            q.schedule(1.0, lambda i=i: fired.append(i))
        q.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_callbacks_can_schedule(self):
        q = EventQueue()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 4:
                q.schedule(q.now + 1.0, lambda: chain(n + 1))

        q.schedule(0.0, lambda: chain(0))
        assert q.run() == 4.0
        assert fired == [0, 1, 2, 3, 4]

    def test_past_scheduling_rejected(self):
        q = EventQueue()
        q.schedule(5.0, lambda: q.schedule(1.0, lambda: None))
        with pytest.raises(SimulationError, match="causality"):
            q.run()

    def test_max_events(self):
        q = EventQueue()
        for t in range(10):
            q.schedule(float(t), lambda: None)
        q.run(max_events=4)
        assert q.processed == 4
        assert q.pending == 6

    def test_step(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        assert q.step() is True
        assert q.step() is False

    def test_now_tracks_last_event(self):
        q = EventQueue()
        q.schedule(7.5, lambda: None)
        q.run()
        assert q.now == 7.5


@given(st.lists(st.floats(0, 1e6, allow_nan=False), max_size=100))
@settings(max_examples=50)
def test_property_events_fire_sorted(times):
    q = EventQueue()
    fired = []
    for t in times:
        q.schedule(t, lambda t=t: fired.append(t))
    q.run()
    assert fired == sorted(times)
    assert q.processed == len(times)


def test_run_until_fires_events_at_the_deadline():
    q = EventQueue()
    fired = []
    for t in (1.0, 2.0, 3.0):
        q.schedule(t, lambda t=t: fired.append(t))
    assert q.run(until=2.0) == 2.0
    assert fired == [1.0, 2.0]
    assert q.pending == 1
