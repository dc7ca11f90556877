"""Worst-case Fair Weighted Fair Queuing, WF2Q+ (Sections 2.3 & 4.1).

WF2Q+ [Bennett & Zhang 1996] is the paper's motivating algorithm: it needs
*both* decisions — when a flow becomes eligible (virtual start time) and
in what order to serve eligible flows (virtual finish time) — so it cannot
be expressed on a single PIFO (Fig. 2).  On PIEO it is four lines:

* rank          = virtual finish time,
* send_time     = virtual start time,
* eligibility   = (virtual_time >= start_time),
* at dequeue the smallest-finish-time flow among eligible flows wins.

Virtual time (Fig. 2a)::

    f.start_time  = max(f.finish_time, virtual_time)  # arrival, empty queue
                  = f.finish_time                     # re-enqueue on dequeue
    f.finish_time = f.start_time + L / r
    virtual_time(t + x) = max(virtual_time(t) + x,
                              min over backlogged f of f.start_time)

where ``L`` is the head packet's length, ``r`` the flow's rate, and ``x``
the transmission time of the departing packet.

``min over backlogged f of f.start_time`` comes from the scheduler's
start-time heap (:meth:`repro.sched.framework.PieoScheduler.min_start_time`),
the software counterpart of the PIEO hardware's ``smallest_send_time``
registers.  Pre-Enqueue pushes an entry each time it writes a start time;
Post-Dequeue pops entries that went stale (flow emptied, or start time
rewritten) off the top and reads the minimum.  The per-packet cost is
O(log N) amortized in the number of flows N.  The heap lives with the
scheduler, so one algorithm instance can drive several schedulers.
"""

from __future__ import annotations

from repro.sched.base import SchedulingAlgorithm, TimeBase
from repro.sched.framework import SchedulerContext
from repro.sim.flow import FlowQueue


class WorstCaseFairWeightedFairQueuing(SchedulingAlgorithm):
    """WF2Q+ on the PIEO primitive."""

    name = "wf2q+"
    time_base = TimeBase.VIRTUAL

    def pre_enqueue(self, ctx: SchedulerContext, flow: FlowQueue) -> None:
        finish = flow.state.get("finish_time", 0.0)
        if ctx.reason == "requeue":
            # Fig. 2a: if dequeue from flow queue, start = finish.
            start = finish
        else:
            # Fig. 2a: if enqueue into empty flow queue.
            start = max(finish, ctx.virtual_time)
        # The flow's reserved rate is its weight-share of the link.
        finish = start + (flow.head_size() * 8
                          / (ctx.link_rate_bps * flow.weight))
        flow.state["start_time"] = start
        flow.state["finish_time"] = finish
        ctx.note_start_time(flow)
        ctx.enqueue(flow, rank=finish, send_time=start)

    def post_dequeue(self, ctx: SchedulerContext, flow: FlowQueue) -> None:
        transmission = flow.head_size() * 8 / ctx.link_rate_bps
        ctx.transmit_head(flow)
        if not flow.is_empty:
            ctx.reenqueue(flow)
        # Fig. 2a virtual-time update, with the served flow's start time
        # already advanced (Bennett & Zhang's B(t) is evaluated after the
        # departure).
        virtual_time = ctx.virtual_time + transmission
        min_start = ctx.min_start_time()
        if min_start is not None and min_start > virtual_time:
            virtual_time = min_start
        ctx.virtual_time = virtual_time


#: Short alias used throughout tests and benchmarks.
WF2Qplus = WorstCaseFairWeightedFairQueuing
