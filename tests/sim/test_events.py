"""Tests for the discrete-event simulator."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(3.0, lambda: log.append("c"))
    sim.schedule(1.0, lambda: log.append("a"))
    sim.schedule(2.0, lambda: log.append("b"))
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    log = []
    for name in "xyz":
        sim.schedule(1.0, lambda name=name: log.append(name))
    sim.run()
    assert log == ["x", "y", "z"]


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_in(-1.0, lambda: None)


@pytest.mark.parametrize("entry", ["schedule", "post"])
def test_nan_time_rejected(entry):
    sim = Simulator()
    log = []
    sim.post(2.0, lambda: log.append("f"))
    with pytest.raises(SimulationError):
        getattr(sim, entry)(float("nan"), lambda: log.append("g"))
    sim.post(1.0, lambda: log.append("h"))
    sim.run()
    assert log == ["h", "f"]
    assert sim.now == 2.0


def test_nan_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_in(float("nan"), lambda: None)
    assert sim.peek_next_time() is None


def test_cancel_prevents_firing():
    sim = Simulator()
    log = []
    handle = sim.schedule(1.0, lambda: log.append("cancelled"))
    sim.schedule(2.0, lambda: log.append("kept"))
    handle.cancel()
    sim.run()
    assert log == ["kept"]


def test_run_until_stops_clock_at_end_time():
    sim = Simulator()
    log = []
    sim.schedule(1.0, lambda: log.append(1))
    sim.schedule(10.0, lambda: log.append(10))
    sim.run_until(5.0)
    assert log == [1]
    assert sim.now == 5.0
    sim.run_until(20.0)
    assert log == [1, 10]


def test_events_can_schedule_events():
    sim = Simulator()
    log = []

    def chain(depth):
        log.append(depth)
        if depth < 3:
            sim.schedule_in(1.0, lambda: chain(depth + 1))

    sim.schedule(0.0, lambda: chain(0))
    sim.run()
    assert log == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_livelock_guard():
    sim = Simulator()

    def rearm():
        sim.schedule_in(0.0, rearm)

    sim.schedule(0.0, rearm)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_run_within_budget_completes():
    """The budget is checked before each step: a run that empties the
    queue in exactly ``max_events`` events completes."""
    sim = Simulator()
    log = []
    sim.schedule(1.0, lambda: log.append(1))
    sim.run(max_events=1)
    assert log == [1]
    assert sim.pending_events == 0


def test_run_over_budget_raises_while_event_pending():
    sim = Simulator()
    log = []
    sim.schedule(1.0, lambda: log.append(1))
    sim.schedule(2.0, lambda: log.append(2))
    with pytest.raises(SimulationError):
        sim.run(max_events=1)
    assert log == [1]
    assert sim.pending_events == 1


def test_peek_next_time_skips_cancelled():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.peek_next_time() == 2.0



def test_cancel_after_fire_emits_nothing():
    """Cancelling a handle whose event already fired is a full no-op:
    the handle is not marked cancelled, and no counter or resident
    entry of the simulator moves, also on a second cancel."""
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    fired, resident = sim.events_fired, sim._queue.resident
    handle.cancel()
    handle.cancel()
    assert not handle.cancelled
    assert sim.cancelled_events == 0
    assert sim.pending_events == 0
    assert sim.events_fired == fired
    assert sim._queue.resident == resident
