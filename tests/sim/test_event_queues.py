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
    assert len(sim._heap) - sim._cancelled == 0


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    handle.cancel()  # already fired: must not count as a cancelled resident
    assert not handle.cancelled
    assert sim._cancelled == 0


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
    outnumber live ones.  The live and cancelled populations, sampled
    after every cancel, stay within the same bound."""
    sim = Simulator()
    sim.schedule(1.0, lambda: None)  # one live keeper
    peak_resident = peak_cancelled = peak_pending = 0
    for _ in range(5_000):
        handle = sim.schedule(0.5, lambda: None)
        handle.cancel()
        peak_resident = max(peak_resident, len(sim._heap))
        peak_cancelled = max(peak_cancelled, sim._cancelled)
        peak_pending = max(peak_pending, len(sim._heap) - sim._cancelled)
    bound = 2 * COMPACT_MIN_CANCELLED + 8
    assert peak_resident <= bound
    assert peak_cancelled <= bound
    assert peak_pending <= bound
    assert len(sim._heap) - sim._cancelled == 1
    sim.run()
    assert len(sim._heap) - sim._cancelled == 0


def test_tiny_queues_skip_compaction():
    """Below the absolute floor, cancellations stay lazily resident."""
    sim = Simulator()
    handles = [sim.schedule(1.0, lambda: None)
               for _ in range(COMPACT_MIN_CANCELLED)]
    for handle in handles:
        handle.cancel()
    assert sim._cancelled == COMPACT_MIN_CANCELLED
    assert len(sim._heap) - sim._cancelled == 0
    assert len(sim._heap) == COMPACT_MIN_CANCELLED


# ----------------------------------------------------------------------
# Hypothesis: both entry points against the oracle
# ----------------------------------------------------------------------
_MIXED_COMMANDS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS),
        st.tuples(st.just("post"), _DELAYS),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("advance"), _DELAYS),
    ),
    max_size=80)


class _MixedOracle(_Oracle):
    """The oracle with handle-free rows.  Only rows armed by
    ``schedule`` can be cancelled; a chained row inherits its parent's
    entry point."""

    def __init__(self):
        super().__init__()
        self.cancellable = []  # per row
        self.handles = []  # indices of cancellable rows

    def arm(self, time, label, chain_delay, cancellable):
        if cancellable:
            self.handles.append(len(self.rows))
        self.cancellable.append(cancellable)
        self.schedule(time, label, chain_delay)

    def cancel(self, value):
        if self.handles:
            self.rows[self.handles[value % len(self.handles)]][4] = False

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
            if row[3] is not None:
                self.arm(self.now + row[3], next(labels), None,
                         self.cancellable[row[1]])
        if end_time is not None and self.now < end_time:
            self.now = end_time


def _simulate_mixed(commands):
    """Run a program of cancellable (``schedule``) and handle-free
    (``post``) events through a Simulator.  Returns (firing log, final
    now, events fired)."""
    sim = Simulator()
    log = []
    handles = []
    labels = itertools.count()

    def arm(cancellable, time, callback):
        if cancellable:
            handles.append(sim.schedule(time, callback))
        else:
            assert sim.post(time, callback) is None

    def fire(label, chain_delay, cancellable):
        log.append((label, sim.now))
        if chain_delay is not None:
            chained = next(labels)
            arm(cancellable, sim.now + chain_delay,
                lambda: log.append((chained, sim.now)))

    for kind, value in commands:
        if kind in ("schedule", "post"):
            label = next(labels)
            cancellable = kind == "schedule"
            arm(cancellable, sim.now + value,
                lambda l=label, d=_chain_delay(label, value),
                c=cancellable: fire(l, d, c))
        elif kind == "cancel":
            if handles:
                handles[value % len(handles)].cancel()
        else:  # advance
            sim.run_until(sim.now + value)
    sim.run()
    return log, sim.now, sim.events_fired


def _oracle_mixed(commands):
    """The same program through :class:`_MixedOracle`."""
    oracle = _MixedOracle()
    labels = itertools.count()
    for kind, value in commands:
        if kind in ("schedule", "post"):
            label = next(labels)
            oracle.arm(oracle.now + value, label,
                       _chain_delay(label, value), kind == "schedule")
        elif kind == "cancel":
            oracle.cancel(value)
        else:  # advance
            oracle.run_until(oracle.now + value, labels)
    oracle.run_until(None, labels)
    return oracle.log, oracle.now, oracle.fired


@given(commands=_MIXED_COMMANDS)
@settings(max_examples=100, deadline=None)
def test_mixed_entry_points_match_brute_force_oracle(commands):
    """Cancellable and handle-free events fire in the oracle's
    ``(time, seq)`` order."""
    assert _simulate_mixed(commands) == _oracle_mixed(commands)


def test_compaction_under_churn_with_handle_free_events():
    """Compaction inside a running dispatch loop: each callback posts
    its successor and arms and cancels a few retry-style timers, so the
    queue compacts while the loop holds the heap.  Every posted event
    still fires in order, no cancelled one fires, and the resident set
    keeps the same bound as the schedule-only soak above."""
    sim = Simulator()
    fired = []
    peak_resident = 0

    def dead():
        raise AssertionError("a cancelled event fired")

    def step(index):
        nonlocal peak_resident
        fired.append(index)
        for _ in range(3):
            sim.schedule(sim.now + 1.0, dead).cancel()
        peak_resident = max(peak_resident, len(sim._heap))
        if index < 2_000:
            sim.post(sim.now + 1e-6, lambda: step(index + 1))

    sim.post(0.0, lambda: step(0))
    sim.post(1.0, lambda: fired.append("keeper"))
    sim.run_until(0.5)
    bound = 2 * COMPACT_MIN_CANCELLED + 8
    assert fired == list(range(2_001))
    assert peak_resident <= bound
    assert len(sim._heap) - sim._cancelled == 1
    sim.run()
    assert fired[-1] == "keeper"
    assert len(sim._heap) == sim._cancelled == 0
