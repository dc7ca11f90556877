"""Minimal deterministic discrete-event simulator.

Time is a float (seconds).  Events scheduled for the same instant fire in
scheduling order, which keeps runs fully deterministic.

Pending events live in one :class:`HeapEventQueue`, a ``heapq`` binary
heap of ``(time, seq, handle, callback)`` tuples, so same-instant events
pop in scheduling order.  Cancellation is lazy: :meth:`EventHandle.cancel`
marks the handle and the entry is discarded when it surfaces.  To keep
the resident set bounded under heavy cancel churn (retry timers), the
queue compacts — i.e. rebuilds without dead entries — once more than
half its resident entries are cancelled (with a small absolute floor so
tiny queues never bother).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.scope import NULL_METRICS, NULL_TRACER

EventCallback = Callable[[], None]

#: Queue entry: (time, seq, handle, callback).
EventEntry = Tuple[float, int, "EventHandle", EventCallback]

#: Compaction triggers when cancelled entries exceed this count AND make
#: up more than half of the resident set.
COMPACT_MIN_CANCELLED = 64


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancel."""

    __slots__ = ("time", "cancelled", "event_id", "tracer", "sim", "fired")

    def __init__(self, time: float, event_id: int = -1,
                 tracer=NULL_TRACER, sim=None) -> None:
        self.time = time
        self.cancelled = False
        self.event_id = event_id
        self.tracer = tracer
        self.sim = sim
        self.fired = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if not self.fired and self.sim is not None:
                self.sim._note_cancel()
            # Stamp the cancel at the *current* sim time (the instant it
            # happens); the armed deadline rides along as a field.  The
            # deadline is usually in the future, and stamping it as the
            # event time makes traced streams non-monotonic.
            now = self.sim.now if self.sim is not None else self.time
            self.tracer.timer_cancel(now, self.event_id,
                                     scope="sim", deadline=self.time)


# ----------------------------------------------------------------------
# Pending-event queue
# ----------------------------------------------------------------------
class HeapEventQueue:
    """Pending events in one ``heapq`` binary heap.

    Entries are ``(time, seq, handle, callback)`` tuples, so they pop in
    ``(time, seq)`` order and same-instant events fire in scheduling
    order.  Cancellation is lazy: the simulator calls :meth:`note_cancel`
    when a resident entry's handle is cancelled, and the queue discards
    dead entries when they surface or during :meth:`compact`.
    """

    __slots__ = ("_heap", "_cancelled")

    def __init__(self) -> None:
        self._heap: List[EventEntry] = []
        self._cancelled = 0

    def push(self, entry: EventEntry) -> None:
        heapq.heappush(self._heap, entry)

    def pop(self) -> Optional[EventEntry]:
        """Remove and return the next live entry, or None when empty."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[2].cancelled:
                self._cancelled -= 1
                continue
            return entry
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live entry, or None when empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        """Number of live (non-cancelled) resident entries."""
        return len(self._heap) - self._cancelled

    @property
    def resident(self) -> int:
        """Total resident entries, including cancelled ones."""
        return len(self._heap)

    @property
    def cancelled(self) -> int:
        """Cancelled entries still occupying space."""
        return self._cancelled

    def note_cancel(self) -> None:
        """A resident entry's handle was cancelled."""
        self._cancelled += 1
        if (self._cancelled > COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > len(self._heap)):
            self.compact()

    def compact(self) -> None:
        """Rebuild without cancelled entries."""
        self._heap = [e for e in self._heap if not e[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------
class Simulator:
    """Event loop with absolute-time scheduling.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`) observes the timer
    lifecycle: every scheduled event emits ``timer_arm``, and exactly one
    of ``timer_fire`` (dispatched) or ``timer_cancel`` (cancelled via its
    handle) follows — events still pending when the run stops emit
    neither.  The default is the shared null tracer.

    ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`) exposes
    ``sim.pending_events`` / ``sim.cancelled_events`` gauges tracking the
    live and cancelled-but-resident event populations (updated on every
    schedule/cancel/fire, so the gauge watermarks bound the queue's
    footprint over the whole run).
    """

    def __init__(self, tracer=None, metrics=None) -> None:
        self.now = 0.0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._queue = HeapEventQueue()
        self._seq = itertools.count()
        self.events_fired = 0
        # Fast-forward window for Simulator.advance_to (set by run/
        # run_until while they are draining).
        self._horizon: Optional[float] = None
        self._budget: Optional[int] = None
        # Registered clock consumers (transmit engines). advance_to is
        # only sound while a single consumer can fast-forward the clock;
        # with two engines, one engine's jump would skip past the
        # other's in-flight transmissions.
        self._clock_consumers = 0
        self._traced = self.tracer is not NULL_TRACER
        self._metered = self.metrics is not NULL_METRICS
        if self._metered:
            self._g_pending = self.metrics.gauge("sim.pending_events")
            self._g_cancelled = self.metrics.gauge("sim.cancelled_events")

    # -- gauges --------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) events currently resident."""
        return len(self._queue)

    @property
    def cancelled_events(self) -> int:
        """Cancelled events still occupying queue space."""
        return self._queue.cancelled

    def _update_gauges(self) -> None:
        queue = self._queue
        self._g_pending.set(len(queue))
        self._g_cancelled.set(queue.cancelled)

    def _note_cancel(self) -> None:
        """Called by :meth:`EventHandle.cancel` for resident entries."""
        self._queue.note_cancel()
        if self._metered:
            self._update_gauges()

    # -- scheduling ----------------------------------------------------
    def schedule(self, time: float, callback: EventCallback) -> EventHandle:
        """Run ``callback`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self.now}")
        seq = next(self._seq)
        handle = EventHandle(time, event_id=seq, tracer=self.tracer,
                             sim=self)
        if self._traced:
            self.tracer.timer_arm(self.now, seq, deadline=time, scope="sim")
        self._queue.push((time, seq, handle, callback))
        if self._metered:
            self._update_gauges()
        return handle

    def schedule_in(self, delay: float,
                    callback: EventCallback) -> EventHandle:
        """Run ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self.now + delay, callback)

    def peek_next_time(self) -> Optional[float]:
        return self._queue.peek_time()

    # -- dispatch ------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event; False when none remain."""
        entry = self._queue.pop()
        if entry is None:
            return False
        time, seq, handle, callback = entry
        handle.fired = True
        self.now = time
        self.events_fired += 1
        if self._traced:
            self.tracer.timer_fire(time, seq, scope="sim")
        if self._metered:
            self._update_gauges()
        callback()
        return True

    def register_clock_consumer(self) -> None:
        """Declare a component that may call :meth:`advance_to`.

        Transmit engines register themselves at construction.  While
        more than one consumer is registered, every :meth:`advance_to`
        is refused and callers fall back to their event-driven paths,
        which serialize correctly through the shared queue.
        """
        self._clock_consumers += 1

    def advance_to(self, time: float) -> bool:
        """Fast-forward the clock to ``time`` from inside a callback.

        Sanctioned for the transmit engine's drain loop: lets one event
        callback play the role of a chain of timer events, provided that
        is indistinguishable from dispatching them individually.  The
        advance is refused (returns False, clock untouched) unless a run
        is active (``run``/``run_until`` set the horizon), ``time`` is
        within the horizon, the event budget has room, no pending event
        fires at or before ``time``, and at most one clock consumer is
        registered (two engines sharing a simulator must serialize
        through the event queue, not jump past each other).  A
        successful advance counts against ``events_fired`` exactly like
        the timer event it replaces, so livelock guards keep their
        meaning.
        """
        if self._clock_consumers > 1:
            return False
        horizon = self._horizon
        if horizon is None or time > horizon or time < self.now:
            return False
        budget = self._budget
        if budget is not None and self.events_fired >= budget:
            return False
        next_time = self._queue.peek_time()
        if next_time is not None and next_time <= time:
            return False
        self.now = time
        self.events_fired += 1
        return True

    def run_until(self, end_time: float,
                  max_events: Optional[int] = None) -> None:
        """Fire events until the queue drains or ``end_time`` is reached.

        The clock is left at ``end_time`` (or at the last event if the
        queue drained first and that is earlier).
        """
        prev_horizon, prev_budget = self._horizon, self._budget
        self._horizon = end_time
        budget = (None if max_events is None
                  else self.events_fired + max_events)
        self._budget = budget
        queue = self._queue
        try:
            while True:
                next_time = queue.peek_time()
                if next_time is None or next_time > end_time:
                    break
                if budget is not None and self.events_fired >= budget:
                    raise SimulationError(
                        f"exceeded max_events={max_events} before "
                        f"t={end_time}; likely a scheduling livelock")
                self.step()
        finally:
            self._horizon, self._budget = prev_horizon, prev_budget
        if self.now < end_time:
            self.now = end_time

    def run(self, max_events: int = 10_000_000) -> None:
        """Drain the event queue completely.

        Raises :class:`SimulationError` when ``max_events`` events have
        fired and another is still pending; a run that empties the queue
        within the budget completes.
        """
        prev_horizon, prev_budget = self._horizon, self._budget
        self._horizon = math.inf
        budget = (None if max_events is None
                  else self.events_fired + max_events)
        self._budget = budget
        queue = self._queue
        try:
            while True:
                if (budget is not None and self.events_fired >= budget
                        and len(queue)):
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "likely a livelock")
                if not self.step():
                    break
        finally:
            self._horizon, self._budget = prev_horizon, prev_budget
