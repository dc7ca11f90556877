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

Fast path: when the engine is unobserved (null tracer and metrics), it
*drains* — one timer callback transmits consecutive single-packet
dequeues back to back, and crosses each shaping gap to the next
eligibility instant, advancing the clock through
:meth:`Simulator.advance_to` instead of firing timer events.  The
drain falls back to the event-driven tail (or the retry timer) the
moment any pending event would interleave, so the Recorder output
(order, times, packet ids) is bit-identical to the unbatched path; only
``events_fired`` accounting is condensed (each successful advance still
counts as one event).  On a simulator shared by several engines every
advance is refused, so the engine skips the drain there and runs the
event-driven loop directly.
"""

from __future__ import annotations

import itertools
import math
import time
from bisect import bisect_left
from typing import Callable, Dict, Hashable, List, Optional

from repro.obs.metrics import BATCH_BUCKETS, LATENCY_BUCKETS_US
from repro.obs.scope import NULL_COUNTER, NULL_METRICS, NULL_TRACER
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
        # engines, Simulator.advance_to refuses every fast-forward and
        # the drain falls back to its event-driven tail, which
        # serializes engines correctly through the shared queue.
        sim.register_clock_consumer()
        self.recorder = recorder if recorder is not None else Recorder()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._traced = self.tracer is not NULL_TRACER
        #: Per-flow departure callbacks (e.g. BackloggedSource refills).
        self.departure_listeners: Dict[Hashable,
                                       Callable[[], None]] = {}
        self._retry_handle = None
        self._retry_timer_id = None
        self._retry_ids = itertools.count()
        self._kick_pending = False
        # Metrics instruments (no-ops on the default null registry).
        self._c_arrivals = self.metrics.counter("engine.arrivals")
        self._c_departures = self.metrics.counter("engine.departures")
        self._c_kicks = self.metrics.counter("engine.kicks")
        self._c_retry_arms = self.metrics.counter("engine.retry_arms")
        self._g_backlog_pkts = self.metrics.gauge("engine.backlog_pkts")
        self._g_backlog_bytes = self.metrics.gauge("engine.backlog_bytes")
        self._h_batch = self.metrics.histogram("engine.batch_size",
                                               BATCH_BUCKETS)
        self._h_schedule_us = self.metrics.histogram(
            "engine.schedule_us", LATENCY_BUCKETS_US)
        #: True when the registry hands out live instruments (any null
        #: registry hands out the shared null ones).
        self._metered = self._c_arrivals is not NULL_COUNTER
        # Drain only when nothing observes the event-level behaviour
        # the drain condenses.
        self.drain_enabled = not self._traced and not self._metered

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
        self._kick_pending = False
        sim = self.sim
        now = sim.now
        if now < self.link.busy_until:
            self.kick()
            return
        if self._retry_handle is not None:
            self._cancel_retry(now)
        # On a shared clock every advance_to is refused, and the drain
        # would only replay the event-driven loop below one frame deeper.
        if self.drain_enabled and not sim.clock_shared:
            self._drain(now)
            return
        if self._metered:
            start = time.perf_counter()
            packets = self.scheduler.schedule(now)
            elapsed_us = (time.perf_counter() - start) * 1e6
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
            packets = self.scheduler.schedule(now)
        if packets:
            self._transmit_batch(packets, now)
            return
        self._arm_retry(now, self.scheduler.next_eligible_time(now))

    def _drain(self, now: float) -> None:
        """Fast path: transmit consecutive single-packet dequeues in one
        callback, advancing the clock between them.

        Equivalence with the event-driven loop (which this replaces only
        on unobserved runs): each iteration plays the ``listener event →
        _try_transmit event`` pair the unbatched path would schedule at
        the packet's finish time, and an idle gap plays the retry
        timer's ``_on_retry → _try_transmit`` pair at its instant.
        ``advance_to`` refuses whenever any pending event fires at or
        before the target instant (or the run horizon / event budget is
        hit), in which case the loop schedules exactly the events the
        unbatched path would have and exits — so interleaving, and hence
        Recorder output, never changes.
        """
        sim = self.sim
        schedule = self.scheduler.schedule
        link_transmit = self.link.transmit
        record = self.recorder.record
        listeners = self.departure_listeners
        advance = sim.advance_to
        release = self.release
        departure_hook = self.departure_hook
        while True:
            packets = schedule(now)
            if not packets:
                # Idle gap: cross it the way the retry timer would, or
                # arm that timer when an event or the horizon is first.
                wake_at = self.scheduler.next_eligible_time(now)
                if now < wake_at < math.inf and advance(wake_at):
                    now = wake_at
                    continue
                self._arm_retry(now, wake_at)
                return
            if len(packets) != 1:
                self._transmit_batch(packets, now)
                return
            packet = packets[0]
            finish = link_transmit(packet, now)
            packet.departure_time = finish
            record(now, packet.flow_id, packet.size_bytes,
                   packet.packet_id)
            if release is not None:
                release(packet.flow_id, packet.size_bytes)
            if departure_hook is not None:
                departure_hook(packet)
            listener = listeners.get(packet.flow_id)
            if not advance(finish):
                # Event-driven tail, exactly as _transmit_batch does it:
                # listener first, then the re-kick, so pending events at
                # earlier instants interleave identically.
                if listener is not None:
                    sim.post(finish, listener)
                self.kick()
                return
            now = finish
            if listener is not None:
                # The unbatched path runs the listener while the re-kick
                # is still pending, so arrivals it triggers must not
                # double-kick.
                self._kick_pending = True
                listener()
                self._kick_pending = False

    def _transmit_batch(self, packets: List[Packet], now: float) -> None:
        # A retry timer armed for a now-stale eligibility instant must not
        # survive a transmission: the batch itself re-kicks the loop, and
        # a stale wakeup would double-kick the scheduler (observable as a
        # spurious extra schedule() probe between batches).
        if self._retry_handle is not None:
            self._cancel_retry(now)
        start = now
        traced = self._traced
        metered = self._metered
        link_transmit = self.link.transmit
        record = self.recorder.record
        listeners = self.departure_listeners
        sim_post = self.sim.post
        release = self.release
        departure_hook = self.departure_hook
        for packet in packets:
            finish = link_transmit(packet, start)
            packet.departure_time = finish
            record(start, packet.flow_id, packet.size_bytes,
                   packet.packet_id)
            if release is not None:
                release(packet.flow_id, packet.size_bytes)
            if departure_hook is not None:
                departure_hook(packet)
            if traced:
                self.tracer.departure(start, packet.flow_id,
                                      packet.size_bytes, packet.packet_id,
                                      finish=finish,
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
            listener = listeners.get(packet.flow_id)
            if listener is not None:
                sim_post(finish, listener)
            start = finish
        if traced:
            self.tracer.link_idle(start)
        # Link idle again at the end of the batch: schedule the next try.
        self.kick()

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
