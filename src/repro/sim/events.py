"""Minimal deterministic discrete-event simulator.

Time is a float (seconds).  Events scheduled for the same instant fire in
scheduling order, which keeps runs fully deterministic.

Pending events live in the simulator's ``heapq`` binary heap of
:data:`EventEntry` tuples ``(time, seq, callback, handle)``, so
same-instant events pop in scheduling order (``seq`` is unique, so the
comparison never reaches the callback).  There are two ways in:

* :meth:`Simulator.schedule` returns a cancellable :class:`EventHandle`,
  which the entry carries in its last slot;
* :meth:`Simulator.post` allocates no handle (the slot is ``None``), for
  the callers that never cancel: every per-packet event (kicks,
  departure listeners, generators, fabric hops).

Both draw ``seq`` from one counter, so same-instant events fire in
the order they were armed, whichever entry point armed them.

Cancellation is lazy: :meth:`EventHandle.cancel` marks the handle and
the entry is discarded when it surfaces.  To keep the resident set
bounded under heavy cancel churn (retry timers), the heap compacts —
i.e. rebuilds without dead entries, in place — once more than half its
resident entries are cancelled (with a small absolute floor so tiny
queues never bother).

Dispatch: :meth:`Simulator.run`/:meth:`Simulator.run_until` pop the
heap in one loop of their own and call each callback directly, with no
per-event method frame, doing exactly what :meth:`Simulator.step` (the
public single-step call) does.

The simulator has no observers: the event queue is scaffolding of the
simulation, not part of the modelled scheduler, so an observed run
dispatches through the same code as an unobserved one.  The components
it drives (engines, buffers, schedulers) carry their own observers.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

EventCallback = Callable[[], None]

#: Queue entry: (time, seq, callback, handle); ``handle`` is None for an
#: event posted with :meth:`Simulator.post`, which nobody can cancel.
EventEntry = Tuple[float, int, EventCallback, Optional["EventHandle"]]

#: Compaction triggers when cancelled entries exceed this count AND make
#: up more than half of the resident set.
COMPACT_MIN_CANCELLED = 64


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancel."""

    __slots__ = ("time", "cancelled", "sim", "fired")

    def __init__(self, time: float, sim: "Simulator") -> None:
        self.time = time
        self.cancelled = False
        self.sim = sim
        self.fired = False

    def cancel(self) -> None:
        """Withdraw the event.  A no-op once it has fired or been
        cancelled, so a fired event is never counted as a cancelled
        resident."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        self.sim._note_cancel()


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------
class Simulator:
    """Event loop with absolute-time scheduling."""

    def __init__(self) -> None:
        self.now = 0.0
        # Pending events.  Compaction rebuilds the list in place and
        # never replaces it, so a dispatch loop may hold on to it across
        # callbacks that cancel.
        self._heap: List[EventEntry] = []
        # Cancelled entries still resident in the heap.
        self._cancelled = 0
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
        #: True once more than one clock consumer is registered: every
        #: :meth:`advance_to` is then refused, so consumers can skip
        #: their fast-forward paths without asking.
        self.clock_shared = False

    # -- queue population ----------------------------------------------
    def _note_cancel(self) -> None:
        """A resident entry's handle was cancelled: compact once more
        than half the resident entries are dead."""
        self._cancelled += 1
        if (self._cancelled > COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries, in place."""
        heap = self._heap
        heap[:] = [entry for entry in heap
                   if entry[3] is None or not entry[3].cancelled]
        heapify(heap)
        self._cancelled = 0

    # -- scheduling ----------------------------------------------------
    def schedule(self, time: float, callback: EventCallback) -> EventHandle:
        """Run ``callback`` at absolute ``time`` (>= now); the returned
        handle can cancel it."""
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule event at {time} before now={self.now}")
        handle = EventHandle(time, self)
        heappush(self._heap, (time, next(self._seq), callback, handle))
        return handle

    def post(self, time: float, callback: EventCallback) -> None:
        """Run ``callback`` at absolute ``time`` (>= now); the event
        cannot be cancelled.

        Like :meth:`schedule` (same sequence numbers) but allocates no
        handle."""
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule event at {time} before now={self.now}")
        heappush(self._heap, (time, next(self._seq), callback, None))

    def schedule_in(self, delay: float,
                    callback: EventCallback) -> EventHandle:
        """Run ``callback`` after ``delay`` seconds."""
        if not delay >= 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self.now + delay, callback)

    def peek_next_time(self) -> Optional[float]:
        """Time of the next live event, or None when none is pending;
        discards the cancelled entries on top of the heap."""
        heap = self._heap
        while heap:
            handle = heap[0][3]
            if handle is None or not handle.cancelled:
                return heap[0][0]
            heappop(heap)
            self._cancelled -= 1
        return None

    # -- dispatch ------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event; False when none remain."""
        heap = self._heap
        while heap:
            time, _, callback, handle = heappop(heap)
            if handle is not None:
                if handle.cancelled:
                    self._cancelled -= 1
                    continue
                handle.fired = True
            self.now = time
            self.events_fired += 1
            callback()
            return True
        return False

    def register_clock_consumer(self) -> None:
        """Declare a component that may call :meth:`advance_to`.

        Transmit engines register themselves at construction.  While
        more than one consumer is registered, :attr:`clock_shared` is
        True and every :meth:`advance_to` is refused: callers fall back
        to their event-driven paths, which serialize correctly through
        the shared queue.
        """
        self._clock_consumers += 1
        self.clock_shared = self._clock_consumers > 1

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
        if self.clock_shared:
            return False
        horizon = self._horizon
        if horizon is None or time > horizon or time < self.now:
            return False
        budget = self._budget
        if budget is not None and self.events_fired >= budget:
            return False
        next_time = self.peek_next_time()
        if next_time is not None and next_time <= time:
            return False
        self.now = time
        self.events_fired += 1
        return True

    def run_until(self, end_time: float,
                  max_events: Optional[int] = None) -> None:
        """Fire events until the queue drains or ``end_time`` is reached.

        The clock is left at ``end_time`` (or at the last event if the
        queue drained first and that is earlier).  Raises
        :class:`SimulationError` when ``max_events`` events have fired
        and another is due by ``end_time``.
        """
        prev_horizon, prev_budget = self._horizon, self._budget
        self._horizon = end_time
        budget = (None if max_events is None
                  else self.events_fired + max_events)
        self._budget = budget
        try:
            if not self._dispatch(end_time, budget):
                raise SimulationError(
                    f"exceeded max_events={max_events} before "
                    f"t={end_time}; likely a scheduling livelock")
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
        try:
            if not self._dispatch(math.inf, budget):
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "likely a livelock")
        finally:
            self._horizon, self._budget = prev_horizon, prev_budget

    def _dispatch(self, end_time: float, budget: Optional[int]) -> bool:
        """Fire every event due at or before ``end_time``.

        Returns False, leaving the next due event pending, once
        ``events_fired`` reaches ``budget``.  Pops the heap here and
        calls each callback directly, doing exactly what :meth:`step`
        does per event without its frame.
        """
        if budget is None:
            budget = math.inf
        heap = self._heap
        while heap:
            time, _, callback, handle = heap[0]
            if handle is not None and handle.cancelled:
                heappop(heap)
                self._cancelled -= 1
                continue
            if time > end_time:
                return True
            if self.events_fired >= budget:
                return False
            heappop(heap)
            if handle is not None:
                handle.fired = True
            self.now = time
            self.events_fired += 1
            callback()
        return True
