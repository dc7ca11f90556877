"""Transmit engine: connects a scheduler to a link inside the simulator.

Implements the output-triggered scheduling loop of Fig. 3: whenever the
link goes idle, ask the scheduler for the next packet(s); when the
scheduler is non-work-conserving and nothing is currently eligible, set a
timer for the next eligibility instant; otherwise wait for the next
arrival to kick scheduling again.

Observability: with a :class:`repro.obs.trace.Tracer` attached the engine
emits ``arrival``/``departure`` per packet, ``kick`` per scheduling
request, the full retry-timer lifecycle (``timer_arm`` /
``timer_fire`` / ``timer_cancel`` under scope ``"engine.retry"``), and
``link_idle`` at the end of each transmitted batch; a
:class:`repro.obs.metrics.MetricsRegistry` additionally aggregates
arrival/departure counters, backlog gauges, the ``schedule()``-batch-size
histogram, and the wall-clock latency of each ``schedule()`` call.  These
per-packet updates write the instruments' attributes directly instead
of calling ``inc``/``dec``/``observe``, which holds by the invariant
stated on :class:`repro.obs.metrics.Gauge`: a rise of a gauge can only
move its ``max`` watermark and a fall its ``min``.

Events: kicks and departure listeners are posted with
:meth:`Simulator.post`, which allocates no handle; only the retry timer,
the one event the engine may withdraw, goes through
:meth:`Simulator.schedule` and keeps its :class:`EventHandle`.

Fast path: the scheduling loop *drains* — one callback transmits
consecutive single-packet dequeues back to back, and crosses each
shaping gap to the next eligibility instant, advancing the clock
through :meth:`Simulator.advance_to` instead of firing the kick,
listener and retry-timer events.  Traced or metered, it emits at each
step exactly what those events would have (``kick``, ``timer_arm`` /
``timer_fire``, ``engine.kicks``, ``engine.retry_arms``), in the same
order.  It falls back to posting those events (or arming the retry
timer) the moment any pending event would interleave, so the Recorder
output, the trace and the metrics are identical to the unbatched loop;
only ``events_fired`` is condensed (each successful advance still
counts as one event).  On a simulator shared by several engines every
advance would be refused, so the engine does not ask and runs the
event-driven loop directly.
"""

from __future__ import annotations

import itertools
import math
import time
from bisect import bisect_left
from typing import Callable, Dict, Hashable, Optional

from repro.obs.metrics import BATCH_BUCKETS, LATENCY_BUCKETS_US
from repro.sim.events import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet
from repro.sim.recorder import Recorder


class TransmitEngine:
    """Drives one scheduler + link pair.

    ``scheduler`` is anything exposing ``on_arrival(flow_id, packet,
    now)``, ``schedule(now) -> List[Packet]`` and
    ``next_eligible_time(now)`` — a flat
    :class:`~repro.sched.framework.PieoScheduler`, a
    :class:`~repro.sched.hierarchical.HierarchicalScheduler`, or one of
    the baseline schedulers.

    ``admission`` is an optional gatekeeper called as ``admission(
    flow_id, packet, now) -> bool`` before the packet reaches the
    scheduler; a False return means the packet was refused (the callee
    — normally a port-bound :meth:`BufferManager.admit
    <repro.sim.buffer.BufferManager.admit>` — is responsible for the
    drop event).  ``release`` is an optional ``release(flow_id,
    size_bytes)`` called once per transmitted packet to credit buffer
    occupancy back, and ``departure_hook`` an optional
    ``hook(packet)`` called right after it (next-hop forwarding), so
    occupancy accounting always runs ahead of any re-injection.  All
    three default to None, leaving the single-engine behaviour (and
    output) untouched.  ``arrivals`` counts the packets offered to
    the engine, admitted or not.
    """

    def __init__(self, sim: Simulator, scheduler, link: Link,
                 recorder: Optional[Recorder] = None,
                 tracer=None, metrics=None,
                 admission: Optional[Callable[[Hashable, Packet, float],
                                              bool]] = None,
                 release: Optional[Callable[[Hashable, int],
                                            None]] = None,
                 departure_hook: Optional[Callable[[Packet],
                                                   None]] = None) -> None:
        self.sim = sim
        self.scheduler = scheduler
        self.link = link
        self.admission = admission
        self.release = release
        self.departure_hook = departure_hook
        self.arrivals = 0
        # Declare ourselves to the simulator: with >1 registered
        # engines the clock is shared, advance_to refuses every
        # fast-forward, and the loop takes its event-driven tail, which
        # serializes engines correctly through the shared queue.
        sim.register_clock_consumer()
        self.recorder = recorder if recorder is not None else Recorder()
        self.tracer = tracer
        self.metrics = metrics
        self._traced = tracer is not None
        self._metered = metrics is not None
        #: Per-flow departure callbacks (e.g. BackloggedSource refills).
        self.departure_listeners: Dict[Hashable,
                                       Callable[[], None]] = {}
        self._retry_handle = None
        self._retry_timer_id = None
        self._retry_ids = itertools.count()
        self._kick_pending = False
        if self._metered:
            self._c_arrivals = metrics.counter("engine.arrivals")
            self._c_departures = metrics.counter("engine.departures")
            self._c_kicks = metrics.counter("engine.kicks")
            self._c_retry_arms = metrics.counter("engine.retry_arms")
            self._g_backlog_pkts = metrics.gauge("engine.backlog_pkts")
            self._g_backlog_bytes = metrics.gauge("engine.backlog_bytes")
            self._h_batch = metrics.histogram("engine.batch_size",
                                              BATCH_BUCKETS)
            self._h_schedule_us = metrics.histogram(
                "engine.schedule_us", LATENCY_BUCKETS_US)

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def arrival_sink(self, flow_id: Hashable, packet: Packet) -> None:
        """Feed a packet in (plug this into the traffic generators)."""
        now = self.sim.now
        packet.arrival_time = now
        self.arrivals += 1
        if self._traced:
            self.tracer.arrival(now, flow_id, packet.size_bytes,
                                packet.packet_id)
        if self._metered:
            self._c_arrivals.value += 1
        # Admission runs after the arrival trace/counter (so the
        # analyzer's conservation audit sees the packet arrive before
        # any drop event) but before the packet touches backlog gauges
        # or the scheduler.
        admission = self.admission
        if admission is not None and not admission(flow_id, packet, now):
            return
        if self._metered:
            # Gauge.inc, inlined (see the Gauge invariant).
            for gauge, amount in ((self._g_backlog_pkts, 1),
                                  (self._g_backlog_bytes,
                                   packet.size_bytes)):
                value = gauge.value = gauge.value + amount
                if gauge.max is None:
                    gauge.min = gauge.max = value
                elif value > gauge.max:
                    gauge.max = value
        self.scheduler.on_arrival(flow_id, packet, now)
        if not self._kick_pending:
            self.kick()

    def add_departure_listener(self, flow_id: Hashable,
                               callback: Callable[[], None]) -> None:
        self.departure_listeners[flow_id] = callback

    def kick(self) -> None:
        """Request a scheduling attempt as soon as the link is idle."""
        if self._kick_pending:
            return
        self._kick_pending = True
        sim = self.sim
        at = self.link.busy_until
        if at < sim.now:
            at = sim.now
        if self._traced:
            self.tracer.kick(sim.now, at=at)
        if self._metered:
            self._c_kicks.value += 1
        sim.post(at, self._try_transmit)

    # ------------------------------------------------------------------
    # The scheduling loop
    # ------------------------------------------------------------------
    def _try_transmit(self) -> None:
        """Fig. 3's loop, one pass per ``schedule()`` call.

        A pass after a lone departure stands in for the unbatched
        loop's ``listener event -> _try_transmit event`` pair at the
        packet's finish time, and a pass after an idle gap for the
        retry timer's ``_on_retry -> _try_transmit`` pair at its
        instant.  When the clock is shared, or ``advance_to`` refuses
        (an event, the horizon or the event budget comes first), the
        loop posts exactly those events instead and returns.
        """
        self._kick_pending = False
        sim = self.sim
        now = sim.now
        link = self.link
        if now < link.busy_until:
            self.kick()
            return
        if self._retry_handle is not None:
            self._cancel_retry(now)
        # On a shared clock every advance_to is refused: don't ask.
        drain = not sim.clock_shared
        scheduler = self.scheduler
        traced = self._traced
        metered = self._metered
        while True:
            if metered:
                began = time.perf_counter()
                packets = scheduler.schedule(now)
                elapsed_us = (time.perf_counter() - began) * 1e6
                # Histogram.observe, inlined, for the wall time and the
                # batch size of this schedule() call.
                for histogram, value in ((self._h_schedule_us, elapsed_us),
                                         (self._h_batch, len(packets))):
                    histogram.counts[bisect_left(histogram.buckets,
                                                 value)] += 1
                    histogram.count += 1
                    histogram.sum += value
                    if histogram.min is None:
                        histogram.min = histogram.max = value
                    elif value < histogram.min:
                        histogram.min = value
                    elif value > histogram.max:
                        histogram.max = value
            else:
                packets = scheduler.schedule(now)
            if not packets:
                # Idle gap: cross it as the retry timer would, or arm
                # that timer when an event or the horizon comes first.
                wake_at = scheduler.next_eligible_time(now)
                if not (drain and now < wake_at < math.inf
                        and sim.advance_to(wake_at)):
                    self._arm_retry(now, wake_at)
                    return
                timer_id = next(self._retry_ids)
                if traced:
                    self.tracer.timer_arm(now, timer_id, deadline=wake_at,
                                          scope="engine.retry")
                    self.tracer.timer_fire(wake_at, timer_id,
                                           scope="engine.retry")
                    self.tracer.kick(wake_at, at=wake_at)
                if metered:
                    self._c_retry_arms.value += 1
                    self._c_kicks.value += 1
                now = wake_at
                continue
            # A batch posts each listener in the departure body, after
            # any events departure_hook posts; a lone packet's listener
            # waits to see whether the clock can advance to its finish.
            batch = len(packets) > 1
            start = now
            for packet in packets:
                finish = link.transmit(packet, start)
                packet.departure_time = finish
                self.recorder.record(start, packet.flow_id,
                                     packet.size_bytes, packet.packet_id)
                if self.release is not None:
                    self.release(packet.flow_id, packet.size_bytes)
                if self.departure_hook is not None:
                    self.departure_hook(packet)
                if traced:
                    self.tracer.departure(start, packet.flow_id,
                                          packet.size_bytes,
                                          packet.packet_id, finish=finish,
                                          arrival_t=packet.arrival_time)
                if metered:
                    self._c_departures.value += 1
                    # Gauge.dec, inlined (see the Gauge invariant).
                    for gauge, amount in ((self._g_backlog_pkts, 1),
                                          (self._g_backlog_bytes,
                                           packet.size_bytes)):
                        value = gauge.value = gauge.value - amount
                        if gauge.min is None:
                            gauge.min = gauge.max = value
                        elif value < gauge.min:
                            gauge.min = value
                listener = self.departure_listeners.get(packet.flow_id)
                if batch and listener is not None:
                    sim.post(finish, listener)
                start = finish
            if traced:
                self.tracer.link_idle(start)
            if batch or not drain or not sim.advance_to(start):
                # Event-driven tail: the listener, then the re-kick, so
                # pending events at earlier instants interleave as ever.
                if not batch and listener is not None:
                    sim.post(start, listener)
                self.kick()
                return
            # The kick the event-driven tail would have emitted, then
            # its listener, which runs while that kick is pending (so
            # the arrivals it triggers must not kick again).
            if traced:
                self.tracer.kick(now, at=start)
            if metered:
                self._c_kicks.value += 1
            now = start
            if listener is not None:
                self._kick_pending = True
                listener()
                self._kick_pending = False

    def _cancel_retry(self, now: float) -> None:
        """Withdraw the armed retry timer (callers check it exists)."""
        self._retry_handle.cancel()
        if self._traced:
            self.tracer.timer_cancel(now, self._retry_timer_id,
                                     scope="engine.retry")
        self._retry_handle = None
        self._retry_timer_id = None

    def _arm_retry(self, now: float, wake_at: float) -> None:
        """Nothing eligible: wake at ``wake_at``, the scheduler's next
        eligibility instant."""
        if not now < wake_at < math.inf:
            # inf: only a new arrival can make progress.  At or before
            # now: an element is nominally eligible but the scheduler
            # returned nothing (e.g. empty logical partition); avoid
            # livelock by waiting for the next arrival.
            return
        self._retry_timer_id = next(self._retry_ids)
        if self._traced:
            self.tracer.timer_arm(now, self._retry_timer_id,
                                  deadline=wake_at, scope="engine.retry")
        if self._metered:
            self._c_retry_arms.value += 1
        self._retry_handle = self.sim.schedule(wake_at, self._on_retry)

    def _on_retry(self) -> None:
        """The armed retry timer fired: it is spent, so drop the handle
        before kicking (otherwise a later cancel() would be a no-op on a
        dead event while a fresh timer goes untracked)."""
        if self._traced:
            self.tracer.timer_fire(self.sim.now, self._retry_timer_id,
                                   scope="engine.retry")
        self._retry_handle = None
        self._retry_timer_id = None
        self.kick()
