"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator


class TestSimulator:
    def test_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run_until(10.0)
        assert fired == ["a", "b", "c"]
        assert sim.now == 10.0

    def test_priority_breaks_ties(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("low"), priority=5)
        sim.schedule(1.0, lambda: fired.append("high"), priority=0)
        sim.run_until(1.0)
        assert fired == ["high", "low"]

    def test_insertion_order_breaks_remaining_ties(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        sim.run_until(1.0)
        assert fired == [0, 1, 2, 3, 4]

    def test_schedule_in(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule_in(0.5, lambda: fired.append(sim.now)))
        sim.run_until(2.0)
        assert fired == [1.5]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.schedule(4.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_in(-1.0, lambda: None)

    def test_run_until_is_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("edge"))
        sim.run_until(5.0)
        assert fired == ["edge"]

    def test_run_until_past_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.run_until(4.0)

    def test_events_beyond_horizon_stay(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append("late"))
        sim.run_until(5.0)
        assert fired == []
        sim.run_until(10.0)
        assert fired == ["late"]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert not sim.step()
        sim.schedule(1.0, lambda: None)
        assert sim.step()
        assert not sim.step()

    def test_events_fired_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run_until(10.0)
        assert sim.events_fired == 3

    def test_self_rescheduling_chain(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 5:
                sim.schedule_in(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run_until(100.0)
        assert count[0] == 5

    def test_pending_events_in_firing_order(self):
        """Ties on (time, priority) list in insertion order, the order
        they fire in."""
        sim = Simulator()
        fired = []
        for i in range(12):
            sim.schedule(float(i % 2), lambda i=i: fired.append(i), priority=(i // 4) % 2)
        pending = [cb for _, _, cb in sim.pending_events()]
        sim.run_until(5.0)
        assert [cb.__defaults__[0] for cb in pending] == fired
