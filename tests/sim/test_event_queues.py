"""The pending-event queue: firing order, cancellation, and soak tests.

The load-bearing property is that the simulator fires events in exactly
``(time, seq)`` order — including same-instant ties, lazily-cancelled
entries, and events scheduled from inside callbacks.  The hypothesis
test below drives random schedule/cancel/advance programs through a
:class:`Simulator` and compares the firing sequence against a
brute-force oracle: the live events sorted by ``(time, seq)``.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry
from repro.sim.events import COMPACT_MIN_CANCELLED, Simulator


# ----------------------------------------------------------------------
# The simulator's basic contract
# ----------------------------------------------------------------------
def test_time_order_and_fifo_ties():
    sim = Simulator()
    log = []
    sim.schedule(2.0, lambda: log.append("late"))
    for name in "abc":  # same instant: scheduling order
        sim.schedule(1.0, lambda name=name: log.append(name))
    sim.schedule(0.5, lambda: log.append("early"))
    sim.run()
    assert log == ["early", "a", "b", "c", "late"]


def test_cancel_then_fire_race():
    """Cancelling one of several same-instant entries must skip exactly
    that one, even after a peek already surfaced it."""
    sim = Simulator()
    log = []
    doomed = sim.schedule(1.0, lambda: log.append("doomed"))
    sim.schedule(1.0, lambda: log.append("kept"))
    assert sim.peek_next_time() == 1.0
    doomed.cancel()
    assert sim.peek_next_time() == 1.0
    sim.run()
    assert log == ["kept"]
    assert sim.pending_events == 0


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    handle.cancel()  # already fired: must not corrupt the gauges
    assert sim.cancelled_events == 0


# ----------------------------------------------------------------------
# Hypothesis: firing order against a brute-force oracle
# ----------------------------------------------------------------------
# Small delays plus 0.0, so same-instant ties are common.
_DELAYS = st.sampled_from(
    [0.0, 1e-7, 1.5e-7, 5e-7, 1e-6, 1.5e-6, 3.7e-6, 1e-3])

_COMMANDS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("advance"), _DELAYS),
    ),
    max_size=80)


class _Oracle:
    """Brute-force pending set: a plain list of ``[time, seq, label,
    chain_delay, live]`` rows; the next event is the minimum live row
    by ``(time, seq)``."""

    def __init__(self):
        self.now = 0.0
        self.rows = []
        self.log = []
        self.fired = 0

    def schedule(self, time, label, chain_delay):
        self.rows.append([time, len(self.rows), label, chain_delay, True])

    def _next(self):
        live = [row for row in self.rows if row[4]]
        return min(live, key=lambda row: (row[0], row[1])) if live \
            else None

    def run_until(self, end_time, labels):
        while True:
            row = self._next()
            if row is None or (end_time is not None
                               and row[0] > end_time):
                break
            row[4] = False
            self.now = row[0]
            self.fired += 1
            self.log.append((row[2], self.now))
            if row[3] is not None:  # mirror the in-callback reschedule
                self.schedule(self.now + row[3], next(labels), None)
        if end_time is not None and self.now < end_time:
            self.now = end_time


def _chain_delay(label, delay):
    """Every seventh-ish label reschedules once from its callback."""
    return delay if label % 7 == 3 else None


def _simulate(commands):
    """Run one command program through a Simulator; returns (firing
    log, final now, events fired)."""
    sim = Simulator()
    log = []
    handles = []
    labels = itertools.count()

    def fire(label, chain_delay):
        log.append((label, sim.now))
        if chain_delay is not None:
            chained = next(labels)
            handles.append(sim.schedule(
                sim.now + chain_delay,
                lambda: log.append((chained, sim.now))))

    for kind, value in commands:
        if kind == "schedule":
            label = next(labels)
            handles.append(sim.schedule(
                sim.now + value,
                lambda l=label, d=_chain_delay(label, value): fire(l, d)))
        elif kind == "cancel":
            if handles:
                handles[value % len(handles)].cancel()
        else:  # advance
            sim.run_until(sim.now + value)
    sim.run()
    return log, sim.now, sim.events_fired


def _oracle(commands):
    """The same program through the brute-force oracle."""
    oracle = _Oracle()
    labels = itertools.count()
    for kind, value in commands:
        if kind == "schedule":
            label = next(labels)
            oracle.schedule(oracle.now + value, label,
                            _chain_delay(label, value))
        elif kind == "cancel":
            if oracle.rows:
                oracle.rows[value % len(oracle.rows)][4] = False
        else:  # advance
            oracle.run_until(oracle.now + value, labels)
    oracle.run_until(None, labels)
    return oracle.log, oracle.now, oracle.fired


@given(commands=_COMMANDS)
@settings(max_examples=100, deadline=None)
def test_firing_order_matches_brute_force_oracle(commands):
    assert _simulate(commands) == _oracle(commands)


# ----------------------------------------------------------------------
# Soak: compaction bounds the resident set under cancel churn
# ----------------------------------------------------------------------
def test_compaction_bounds_resident_under_cancel_churn():
    """A retry-timer workload (arm, cancel, re-arm x5000) must not grow
    the queue: lazy cancellation alone would retain every dead entry
    until its time surfaced, but compaction rebuilds once dead entries
    outnumber live ones.  The obs gauges see the same bound."""
    metrics = MetricsRegistry()
    sim = Simulator(metrics=metrics)
    sim.schedule(1.0, lambda: None)  # one live keeper
    peak_resident = 0
    for _ in range(5_000):
        handle = sim.schedule(0.5, lambda: None)
        handle.cancel()
        peak_resident = max(peak_resident, sim._queue.resident)
    bound = 2 * COMPACT_MIN_CANCELLED + 8
    assert peak_resident <= bound
    assert sim.pending_events == 1
    assert sim.cancelled_events <= bound
    cancelled_gauge = metrics.gauge("sim.cancelled_events")
    pending_gauge = metrics.gauge("sim.pending_events")
    assert cancelled_gauge.max <= bound
    assert pending_gauge.max <= bound
    sim.run()
    assert sim.pending_events == 0
    assert pending_gauge.value == 0


def test_tiny_queues_skip_compaction():
    """Below the absolute floor, cancellations stay lazily resident."""
    sim = Simulator()
    handles = [sim.schedule(1.0, lambda: None)
               for _ in range(COMPACT_MIN_CANCELLED)]
    for handle in handles:
        handle.cancel()
    assert sim.cancelled_events == COMPACT_MIN_CANCELLED
    assert sim.pending_events == 0
    assert sim._queue.resident == COMPACT_MIN_CANCELLED
