"""The PIEO scheduler: programming framework plumbing (Fig. 3).

:class:`PieoScheduler` glues together the per-flow FIFO queues, the PIEO
ordered list, and the programming functions of a
:class:`repro.sched.base.SchedulingAlgorithm`:

* the **input-triggered path**: packet arrivals run the Pre-Enqueue
  function (per the selected trigger model) and may push the flow into
  the ordered list;
* the **output-triggered path**: whenever the link is idle the transmit
  engine calls :meth:`PieoScheduler.schedule`, which performs
  ``dequeue()`` on the ordered list (predicate evaluation + smallest
  ranked eligible), then runs the Post-Dequeue function;
* the **asynchronous path**: alarm functions can ``dequeue(f)`` a
  specific flow, mutate its attributes, and re-enqueue it (Section 4.4).

Every ordered-list operation of a decision is one call into the list
backend.  A node of a hierarchy runs its scheduler on a
:class:`LogicalPieoView`; the scheduler unwraps the view once and sends
its dequeues and enqueues straight to the level's physical PIEO with
the node's prebuilt one-group range.

Each scheduler also keeps the smallest virtual start time over its
backlogged flows, the value the PIEO hardware reads from its
``smallest_send_time`` registers and WF2Q+'s virtual clock needs per
packet: a lazily invalidated min-heap of ``(start_time, seq, flow)``
entries (see :meth:`PieoScheduler.min_start_time`).
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.backends import DEFAULT_BACKEND, make_list
from repro.core.element import ALWAYS_ELIGIBLE, Element, Rank, Time
from repro.core.interfaces import PieoList
from repro.errors import (ConfigurationError, SimulationError,
                          UnknownFlowError)
from repro.obs.scope import NULL_COUNTER, NULL_METRICS, NULL_TRACER
from repro.sched.base import SchedulingAlgorithm, TimeBase, TriggerModel
from repro.sim.flow import FlowQueue
from repro.sim.packet import Packet


class LogicalPieoView(PieoList):
    """A node's logical PIEO: the group-filtered view of a shared
    physical PIEO (Fig. 4, "node 2's logical PIEO extracted using
    predicate").

    A :class:`PieoScheduler` built on a view issues its hot-path list
    operations straight to the physical PIEO with the view's one-group
    range, so each costs one call; the view serves everything else.
    """

    def __init__(self, physical: PieoList, group_id: int) -> None:
        self._physical = physical
        self._group_id = group_id

    @property
    def capacity(self) -> int:
        return self._physical.capacity

    def __len__(self) -> int:
        return sum(1 for element in self._physical.snapshot()
                   if element.group == self._group_id)

    def snapshot(self) -> List[Element]:
        return [element for element in self._physical.snapshot()
                if element.group == self._group_id]

    def __contains__(self, flow_id: Hashable) -> bool:
        element = self._physical.find(flow_id)
        return element is not None and element.group == self._group_id

    def enqueue(self, element: Element) -> None:
        element.group = self._group_id
        self._physical.enqueue(element)

    def dequeue(self, now: Time,
                group_range: Optional[Tuple[int, int]] = None,
                ) -> Optional[Element]:
        if group_range is not None:
            raise ConfigurationError(
                "logical PIEO views fix their own group range")
        return self._physical.dequeue(
            now, group_range=(self._group_id, self._group_id))

    def peek(self, now: Time,
             group_range: Optional[Tuple[int, int]] = None,
             ) -> Optional[Element]:
        return self._physical.peek(
            now, group_range=(self._group_id, self._group_id))

    def dequeue_flow(self, flow_id: Hashable) -> Optional[Element]:
        element = self._physical.find(flow_id)
        if element is None or element.group != self._group_id:
            return None
        return self._physical.dequeue_flow(flow_id)

    def min_send_time(self) -> Time:
        times = [element.send_time for element in self.snapshot()]
        return min(times) if times else math.inf


class SchedulerContext:
    """The view of the scheduler that programming functions receive.

    One context is created per trigger (arrival, scheduling decision, or
    alarm); packets emitted through :meth:`transmit_head` are collected
    for the transmit engine.
    """

    __slots__ = ("_scheduler", "now", "reason", "sent", "subtree_blocked",
                 "link_rate_bps", "note_start_time", "min_start_time")

    def __init__(self, scheduler: "PieoScheduler", now: Time,
                 reason: str) -> None:
        self._scheduler = scheduler
        #: Wall-clock time of the trigger.
        self.now = now
        #: Why the programming function is running: "arrival", "requeue",
        #: "dequeue", or "alarm".
        self.reason = reason
        #: Packets handed to the wire by this trigger, in order.
        self.sent: List[Packet] = []
        #: Set when a hierarchical child node was granted a slot but its
        #: subtree had nothing eligible to send (non-work-conserving
        #: inner policy).  Lets the scheduling loop stop retrying a node
        #: that cannot make progress until time advances.
        self.subtree_blocked = False
        #: Rate of the scheduler's link, for virtual-time arithmetic.
        self.link_rate_bps = scheduler.link_rate_bps
        #: ``note_start_time(flow)``: record that
        #: ``flow.state["start_time"]`` was just written, so
        #: ``min_start_time`` sees the new value.
        self.note_start_time = scheduler.note_start_time
        #: ``min_start_time()``: min over backlogged flows of
        #: ``state["start_time"]`` (0.0 when unset), or None when no flow
        #: is backlogged.
        self.min_start_time = scheduler.min_start_time

    # -- global state -----------------------------------------------------
    @property
    def state(self) -> Dict[str, float]:
        """Global scheduling state (Section 3.2: accessible by both the
        control plane and the programming functions)."""
        return self._scheduler.state

    @property
    def virtual_time(self) -> float:
        return self._scheduler.state.get("virtual_time", 0.0)

    @virtual_time.setter
    def virtual_time(self, value: float) -> None:
        self._scheduler.state["virtual_time"] = value

    @property
    def flows(self) -> Dict[Hashable, FlowQueue]:
        return self._scheduler.flows

    def backlogged_flows(self) -> List[FlowQueue]:
        """Flows with at least one queued packet (the set F of Fig. 2a)."""
        return [flow for flow in self._scheduler.flows.values()
                if not flow.is_empty]

    # -- ordered-list operations -------------------------------------------
    def enqueue(self, flow: FlowQueue, rank: Rank,
                send_time: Time = ALWAYS_ELIGIBLE) -> None:
        """ordered_list.enqueue(f) with the assigned attributes."""
        scheduler = self._scheduler
        if not scheduler._quiet:
            scheduler._list_enqueue(flow, rank, send_time, self.now)
            return
        group = scheduler._group
        scheduler._physical.enqueue(Element(
            flow.flow_id, rank, send_time,
            flow.group if group is None else group, flow))

    def reenqueue(self, flow: FlowQueue) -> None:
        """Re-enqueue a still-backlogged flow after a dequeue, honouring
        the configured trigger model (Section 3.2.1 defaults)."""
        scheduler = self._scheduler
        if scheduler.blocked.get(flow.flow_id):
            return
        if scheduler.trigger is TriggerModel.INPUT:
            head = flow.head
            scheduler._list_enqueue(flow, head.rank, head.send_time,
                                    self.now)
            return
        # One requeue context per scheduler, refreshed per call: this
        # runs once per transmitted packet and pre_enqueue functions do
        # not retain the context beyond the call.
        requeue_ctx = scheduler._requeue_ctx
        requeue_ctx.now = self.now
        requeue_ctx.sent = self.sent
        requeue_ctx.subtree_blocked = False
        scheduler.algorithm.pre_enqueue(requeue_ctx, flow)

    # -- transmission -------------------------------------------------------
    def transmit_head(self, flow: FlowQueue) -> Optional[Packet]:
        """send(f.queue.head): pop the head packet and emit it.

        When ``flow`` is a hierarchical class node
        (:class:`repro.sched.hierarchical.SchedNode`, the flow that
        carries a ``scheduler`` of its own), "transmitting its head"
        means granting one scheduling slot downward: the node's own
        scheduler takes one decision over its children.
        """
        scheduler = getattr(flow, "scheduler", None)
        if scheduler is not None:
            packets = scheduler.schedule(self.now)
            self.sent.extend(packets)
            if not packets:
                self.subtree_blocked = True
            return packets[-1] if packets else None
        packet = flow.pop()
        self.sent.append(packet)
        return packet


class PieoScheduler:
    """A programmable packet scheduler built on the PIEO primitive.

    Parameters
    ----------
    algorithm:
        The scheduling policy (programming functions).
    ordered_list:
        An explicit :class:`repro.core.interfaces.PieoList` instance.
        Usually left unset in favour of ``backend``.
    backend:
        Ordered-list backend name resolved through
        :mod:`repro.core.backends` (``"reference"``, ``"hardware"``,
        ...).  Defaults to the registry default; mutually
        exclusive with ``ordered_list``.
    trigger:
        Input- or output-triggered Pre-Enqueue (Section 3.2.1).
    link_rate_bps:
        Rate of the attached link; fair-queuing algorithms need it for
        virtual-time arithmetic.
    tracer / metrics:
        Observability hooks (:mod:`repro.obs`): typed ``enqueue`` /
        ``dequeue`` events per ordered-list transition, plus the
        ``sched.queue_depth`` gauge (elements resident in this
        scheduler's ordered list).  Default to the shared null
        observers.
    """

    def __init__(self, algorithm: SchedulingAlgorithm,
                 ordered_list: Optional[PieoList] = None,
                 trigger: TriggerModel = TriggerModel.OUTPUT,
                 link_rate_bps: float = 40e9,
                 backend: Optional[str] = None,
                 tracer=None, metrics=None) -> None:
        if link_rate_bps <= 0:
            raise ConfigurationError("link_rate_bps must be positive")
        if ordered_list is not None and backend is not None:
            raise ConfigurationError(
                "pass either ordered_list or backend, not both")
        self.algorithm = algorithm
        if ordered_list is None:
            ordered_list = make_list(backend or DEFAULT_BACKEND)
        self.ordered_list: PieoList = ordered_list
        #: Where the hot path sends its list operations.  A scheduler on
        #: a logical PIEO view goes straight to the level's physical
        #: PIEO, dequeuing with the view's one-group range and tagging
        #: enqueued elements with its group, so each operation is one
        #: call into the backend; otherwise the list itself, with no
        #: range and each flow's own group.
        if isinstance(ordered_list, LogicalPieoView):
            self._physical: PieoList = ordered_list._physical
            self._group: Optional[int] = ordered_list._group_id
            self._group_range: Optional[Tuple[int, int]] = (
                self._group, self._group)
        else:
            self._physical = ordered_list
            self._group = None
            self._group_range = None
        self.trigger = trigger
        self.link_rate_bps = link_rate_bps
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: True when the algorithm keeps the stock eligibility_time, so
        #: the dequeue loop can read the threshold directly instead of
        #: calling through the context per decision.
        self._default_eligibility = (
            type(algorithm).eligibility_time
            is SchedulingAlgorithm.eligibility_time)
        #: True when eligibility is evaluated against virtual time.
        self._virtual = algorithm.time_base is TimeBase.VIRTUAL
        #: True when a send time is a wall-clock instant.
        self._wall = algorithm.time_base is TimeBase.WALL
        self._g_depth = self.metrics.gauge("sched.queue_depth")
        self._c_enqueues = self.metrics.counter("sched.enqueues")
        self._c_dequeues = self.metrics.counter("sched.dequeues")
        #: Who observes this scheduler: the tracer gets ``enqueue`` /
        #: ``dequeue`` events and the residency bookkeeping below, live
        #: instruments (any null registry hands out the shared null
        #: ones) are updated by direct attribute writes.  A quiet
        #: scheduler skips all of it.
        self._traced = self.tracer is not NULL_TRACER
        self._metered = self._c_enqueues is not NULL_COUNTER
        self._quiet = not self._traced and not self._metered
        self.flows: Dict[Hashable, FlowQueue] = {}
        #: Residency bookkeeping for eligibility attribution on traced
        #: runs: flow_id -> the wall-clock instant its element's
        #: predicate became true, if known when it was enqueued (see
        #: :meth:`_list_enqueue`).  Mirrors ordered-list membership;
        #: popped when the matching dequeue event is emitted so offline
        #: analysis can split eligibility wait from queueing wait per
        #: element episode.
        self._resident: Dict[Hashable, Optional[Time]] = {}
        #: Global scheduling state (virtual_time lives here).
        self.state: Dict[str, float] = {}
        #: Flows administratively paused by network feedback (Section 4.4).
        self.blocked: Dict[Hashable, bool] = {}
        #: Scheduling decisions taken (dequeue() calls that returned a flow).
        self.decisions = 0
        #: Start-time heap behind :meth:`min_start_time`; built on first
        #: use, so algorithms that never ask for it never maintain it.
        self._start_heap: Optional[List[tuple]] = None
        self._start_seq = itertools.count()
        #: Reused "arrival"/"requeue"/"dequeue"/"peek" contexts (see
        #: :meth:`on_arrival`, :meth:`SchedulerContext.reenqueue`,
        #: :meth:`schedule` and :meth:`peek_flow`).
        self._arrival_ctx = SchedulerContext(self, 0.0, reason="arrival")
        self._requeue_ctx = SchedulerContext(self, 0.0, reason="requeue")
        self._schedule_ctx = SchedulerContext(self, 0.0, reason="dequeue")
        self._peek_ctx = SchedulerContext(self, 0.0, reason="peek")

    # ------------------------------------------------------------------
    # Flow management
    # ------------------------------------------------------------------
    def add_flow(self, flow: FlowQueue) -> FlowQueue:
        if flow.flow_id in self.flows:
            raise ConfigurationError(f"flow {flow.flow_id!r} already added")
        self.flows[flow.flow_id] = flow
        if flow.queue and self._start_heap is not None:
            self.note_start_time(flow)
        return flow

    def get_flow(self, flow_id: Hashable) -> FlowQueue:
        try:
            return self.flows[flow_id]
        except KeyError:
            raise UnknownFlowError(f"unknown flow {flow_id!r}") from None

    # ------------------------------------------------------------------
    # Input-triggered path: packet arrivals
    # ------------------------------------------------------------------
    def on_arrival(self, flow_id: Hashable, packet: Packet,
                   now: Time) -> bool:
        """A packet arrived; returns True if the flow just became
        schedulable (useful as a transmit-engine kick hint)."""
        flow = self.flows.get(flow_id)
        if flow is None:
            raise UnknownFlowError(f"unknown flow {flow_id!r}")
        if self.trigger is TriggerModel.INPUT:
            ctx = self._arrival_ctx
            ctx.now = now
            rank, send_time = self.algorithm.packet_attributes(
                ctx, flow, packet)
            packet.rank = rank
            packet.send_time = send_time
            if not flow.push(packet):
                return False
            # No Pre-Enqueue runs under this trigger, so the flow enters
            # the start-time heap at whatever start time it holds.
            if self._start_heap is not None:
                self.note_start_time(flow)
            if self.blocked.get(flow_id):
                return False
            self._list_enqueue(flow, packet.rank, packet.send_time, now=now)
            return True
        # Output-triggered: Pre-Enqueue fires on enqueue into an *empty*
        # flow queue (and on dequeue from a flow queue, handled in
        # SchedulerContext.reenqueue).  The arrival context is
        # refreshed only when the function will run — most arrivals
        # land on already-backlogged flows.  Pre-Enqueue transmits
        # nothing, so its sent list stays empty.
        if not flow.push(packet):
            return False
        if not self.blocked.get(flow_id):
            ctx = self._arrival_ctx
            ctx.now = now
            self.algorithm.pre_enqueue(ctx, flow)
            return True
        # A paused flow became backlogged without Pre-Enqueue; it still
        # counts towards min_start_time at its old start time.
        if self._start_heap is not None:
            self.note_start_time(flow)
        return False

    # ------------------------------------------------------------------
    # Output-triggered path: link idle
    # ------------------------------------------------------------------
    #: Safety bound on consecutive zero-output decisions (a decision can
    #: legitimately transmit nothing — e.g. a DRR visit that only accrues
    #: deficit — but unbounded streaks indicate a broken policy).
    MAX_ZERO_OUTPUT_DECISIONS = 100_000

    def schedule(self, now: Time) -> List[Packet]:
        """One scheduling opportunity: extract the smallest ranked
        eligible flow and run Post-Dequeue, repeating while decisions
        legitimately produce no packet (e.g. DRR deficit accrual).
        Returns the packets to transmit (empty when no flow is
        eligible)."""
        # One "dequeue" context per scheduler, refreshed per call (the
        # sent list must be fresh — it is returned to the caller).
        # schedule() is not reentrant on a single scheduler: hierarchies
        # descend into *different* schedulers per level.
        ctx = self._schedule_ctx
        ctx.now = now
        ctx.sent = []
        blocked_subtrees = None
        for _ in range(self.MAX_ZERO_OUTPUT_DECISIONS):
            # The context is reused across zero-output iterations: its
            # sent list is empty (a non-empty one returns immediately)
            # and subtree_blocked is re-armed here.
            ctx.subtree_blocked = False
            if not self._default_eligibility:
                eligibility_now = self.algorithm.eligibility_time(ctx)
            elif self._virtual:
                eligibility_now = self.state.get("virtual_time", 0.0)
            else:
                eligibility_now = now
            element = self._physical.dequeue(eligibility_now,
                                             self._group_range)
            if element is None:
                return []
            if not self._quiet:
                if self._traced:
                    # _eligible_at, inlined on the hot dequeue.
                    ready = self._resident.pop(element.flow_id, None)
                    self.tracer.dequeue(
                        now, element.flow_id, element.rank,
                        send_time=element.send_time,
                        eligible_at=(ready if ready is None or ready <= now
                                     else now))
                if self._metered:
                    self._c_dequeues.value += 1
                    # Gauge.dec, inlined (see the Gauge invariant).
                    gauge = self._g_depth
                    value = gauge.value = gauge.value - 1
                    if gauge.min is None:
                        gauge.min = gauge.max = value
                    elif value < gauge.min:
                        gauge.min = value
            if (blocked_subtrees is not None
                    and element.flow_id in blocked_subtrees):
                # This child's subtree already proved unable to send at
                # this instant; put the element back untouched and stop
                # (only time or an arrival can unblock it).
                self._physical.enqueue(element)
                if self._traced:
                    eligible = element.send_time <= eligibility_now
                    self._note_resident(element.flow_id, element.send_time,
                                        eligible, now)
                    self.tracer.enqueue(now, element.flow_id,
                                        element.rank, element.send_time,
                                        requeue=True, eligible=eligible)
                if self._metered:
                    self._g_depth.inc()
                return []
            self.decisions += 1
            flow = self.flows.get(element.flow_id)
            if flow is None:
                raise UnknownFlowError(
                    f"unknown flow {element.flow_id!r}")
            self.algorithm.post_dequeue(ctx, flow)
            if ctx.sent:
                return ctx.sent
            if ctx.subtree_blocked:
                if blocked_subtrees is None:
                    blocked_subtrees = set()
                blocked_subtrees.add(element.flow_id)
        raise SimulationError(
            f"{self.MAX_ZERO_OUTPUT_DECISIONS} consecutive scheduling "
            "decisions produced no packet; the policy is not making "
            "progress")

    def peek_flow(self, now: Time) -> Optional[FlowQueue]:
        """The flow a decision at ``now`` would pick, left in the
        ordered list; None when no flow is eligible."""
        if not self._default_eligibility:
            ctx = self._peek_ctx
            ctx.now = now
            threshold = self.algorithm.eligibility_time(ctx)
        elif self._virtual:
            threshold = self.state.get("virtual_time", 0.0)
        else:
            threshold = now
        element = self._physical.peek(threshold, self._group_range)
        return None if element is None else self.flows.get(element.flow_id)

    def next_eligible_time(self, now: Time) -> Time:
        """Earliest wall-clock instant at which a dequeue may newly
        succeed, for transmit-engine retry timers.  ``inf`` means "only a
        new arrival (or virtual-time advance) can help"."""
        if self.algorithm.time_base is not TimeBase.WALL:
            return float("inf")
        return self.ordered_list.min_send_time()

    # ------------------------------------------------------------------
    # Asynchronous path (Section 4.4)
    # ------------------------------------------------------------------
    def run_alarm(self, flow_id: Hashable, now: Time,
                  handler: Optional[Callable[[SchedulerContext, FlowQueue],
                                             None]] = None) -> bool:
        """Alarm function: ``dequeue(f)``, run the handler, which may
        mutate attributes and re-enqueue.  Returns False if the flow was
        not resident in the ordered list."""
        flow = self.get_flow(flow_id)
        element = self._list_dequeue_flow(flow_id, now=now)
        if element is None:
            return False
        ctx = SchedulerContext(self, now, reason="alarm")
        if handler is not None:
            handler(ctx, flow)
        else:
            self.algorithm.alarm_handler(ctx, flow)
        return True

    def pause_flow(self, flow_id: Hashable, now: Time) -> None:
        """Network-feedback quench (e.g. D3 pause, Section 4.4): block the
        flow and extract it from the ordered list."""
        self.get_flow(flow_id)
        self.blocked[flow_id] = True
        self._list_dequeue_flow(flow_id, now=now)

    def resume_flow(self, flow_id: Hashable, now: Time) -> bool:
        """Unblock a flow; re-enqueues it if backlogged.  Returns True if
        the flow became schedulable again."""
        flow = self.get_flow(flow_id)
        self.blocked[flow_id] = False
        if flow.is_empty or flow.flow_id in self.ordered_list:
            return False
        ctx = SchedulerContext(self, now, reason="arrival")
        self.algorithm.pre_enqueue(ctx, flow)
        return True

    # ------------------------------------------------------------------
    # Virtual start times
    # ------------------------------------------------------------------
    #: Slack above ``2 * len(flows)`` entries before the start-time heap
    #: is rebuilt from the backlogged flows.
    START_HEAP_SLACK = 16

    def note_start_time(self, flow: FlowQueue) -> None:
        """Push ``flow``'s current start time onto the start-time heap.

        Called whenever ``state["start_time"]`` is written and whenever a
        flow becomes backlogged without Pre-Enqueue running.  Older
        entries of the flow go stale and are dropped lazily; when stale
        entries pile up past ``2 * len(flows) + START_HEAP_SLACK`` the
        heap is rebuilt, which is O(N) once per O(N) pushes.
        """
        heap = self._start_heap
        if heap is None or len(heap) >= (2 * len(self.flows)
                                         + self.START_HEAP_SLACK):
            self._rebuild_start_heap()
            return
        heappush(heap, (flow.state.get("start_time", 0.0),
                        next(self._start_seq), flow))

    def min_start_time(self) -> Optional[float]:
        """min over backlogged flows of ``state["start_time"]`` (0.0 when
        unset), or None when no flow is backlogged.

        Amortized O(log N): entries whose flow is empty or whose start
        time has since changed are popped off the top until a current
        one surfaces.
        """
        heap = self._start_heap
        if heap is None:
            heap = self._rebuild_start_heap()
        while heap:
            start, _, flow = heap[0]
            # ``queue`` truthiness == backlogged, for FlowQueue and
            # hierarchical SchedNode children alike.
            if flow.queue and flow.state.get("start_time", 0.0) == start:
                return start
            heappop(heap)
        return None

    def _rebuild_start_heap(self) -> List[tuple]:
        """One entry per backlogged flow, at its current start time."""
        seq = self._start_seq
        heap = [(flow.state.get("start_time", 0.0), next(seq), flow)
                for flow in self.flows.values() if flow.queue]
        heapify(heap)
        self._start_heap = heap
        return heap

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _list_enqueue(self, flow: FlowQueue, rank: Rank,
                      send_time: Time, now: Time) -> None:
        """ordered_list.enqueue(f) with observability.

        A traced scheduler notes when the element's predicate becomes
        true, for the ``eligible_at`` of its dequeue event: now, if it
        is eligible already; its send time, if that is a wall-clock
        instant; otherwise nothing, since a predicate on virtual time
        flips at no wall-clock instant the trace could name.
        """
        group = self._group
        self._physical.enqueue(Element(
            flow.flow_id, rank, send_time,
            flow.group if group is None else group, flow))
        if self._quiet:
            return
        if self._traced:
            eligible = send_time <= (
                self.state.get("virtual_time", 0.0) if self._virtual
                else now)
            # _note_resident, inlined on the hot enqueue.
            self._resident[flow.flow_id] = (
                now if eligible
                else max(now, send_time) if self._wall else None)
            self.tracer.enqueue(now, flow.flow_id, rank, send_time,
                                eligible=eligible)
        if self._metered:
            self._c_enqueues.value += 1
            # Gauge.inc, inlined (see the Gauge invariant).
            gauge = self._g_depth
            value = gauge.value = gauge.value + 1
            if gauge.max is None:
                gauge.min = gauge.max = value
            elif value > gauge.max:
                gauge.max = value

    def _list_dequeue_flow(self, flow_id: Hashable,
                           now: Time) -> Optional[Element]:
        """ordered_list.dequeue(f) with observability (alarm/pause/
        asynchronous extracts); observed as :meth:`schedule` observes
        its dequeues."""
        element = self.ordered_list.dequeue_flow(flow_id)
        if element is None or self._quiet:
            return element
        if self._traced:
            self.tracer.dequeue(now, element.flow_id, element.rank,
                                op="dequeue_flow",
                                send_time=element.send_time,
                                eligible_at=self._eligible_at(
                                    element.flow_id, now))
        if self._metered:
            self._c_dequeues.inc()
            self._g_depth.dec()
        return element

    def _note_resident(self, flow_id: Hashable, send_time: Time,
                       eligible: bool, now: Time) -> None:
        """Note when an element enqueued now has its predicate become
        true (see :meth:`_list_enqueue`)."""
        self._resident[flow_id] = (
            now if eligible
            else max(now, send_time) if self._wall else None)

    def _eligible_at(self, flow_id: Hashable,
                     now: Time) -> Optional[Time]:
        """Wall-clock instant the departing element's predicate became
        true, clamped into its residence interval; ``None`` when no
        wall-clock instant is known."""
        ready = self._resident.pop(flow_id, None)
        return ready if ready is None or ready <= now else now
