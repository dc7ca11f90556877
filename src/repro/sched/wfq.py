"""Weighted Fair Queuing (Section 4.1; Demers, Keshav & Shenker 1989).

WFQ assigns every head packet a virtual finish time and always schedules
the flow whose head packet finishes earliest.  On PIEO: rank = finish
time, predicate always true.

Virtual-time convention.  The paper's pseudo-code writes::

    r = Link_Rate / f.weight
    f.finish_time = max(f.finish_time, virtual_time) + L / r
    virtual_time += L / Link_Rate          # at dequeue

which implicitly assumes the flows' shares sum to the link rate.  To make
weights behave as shares for *any* weight assignment, this implementation
uses the standard bit-by-bit-round-robin normalization: virtual time
advances by ``L / (sum of backlogged weights)`` per ``L`` bits served,
and a flow's finish time advances by ``L / weight`` — so backlogged flows
receive throughput proportional to their weights.  Only the normalization
differs from the paper's listing; the PIEO mapping (rank = finish time,
predicate = true) is identical.
"""

from __future__ import annotations

from repro.core.element import ALWAYS_ELIGIBLE
from repro.sched.base import SchedulingAlgorithm
from repro.sched.framework import SchedulerContext
from repro.sim.flow import FlowQueue


def backlogged_weight(ctx: SchedulerContext) -> float:
    """Sum of weights of currently backlogged flows (>= one flow)."""
    total = sum(flow.weight for flow in ctx.backlogged_flows())
    return total if total > 0 else 1.0


class WeightedFairQueuing(SchedulingAlgorithm):
    """Classic WFQ via virtual finish times (GPS emulation)."""

    name = "wfq"

    def pre_enqueue(self, ctx: SchedulerContext, flow: FlowQueue) -> None:
        finish = max(flow.state.get("finish_time", 0.0), ctx.virtual_time)
        finish += flow.head_size() * 8 / flow.weight
        flow.state["finish_time"] = finish
        ctx.enqueue(flow, rank=finish, send_time=ALWAYS_ELIGIBLE)

    def post_dequeue(self, ctx: SchedulerContext, flow: FlowQueue) -> None:
        served_bits = flow.head_size() * 8
        ctx.transmit_head(flow)
        # Advance the GPS virtual clock: L bits of real service equal
        # L / (sum of active weights) rounds of bit-by-bit service.
        ctx.virtual_time += served_bits / backlogged_weight(ctx)
        if not flow.is_empty:
            ctx.reenqueue(flow)
