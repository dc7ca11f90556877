"""Starvation avoidance in strict-priority scheduling (Section 4.4).

The paper's first asynchronous-scheduling example: a flow that has waited
longer than a threshold without service gets its priority asynchronously
boosted.  The alarm function performs ``dequeue(f)``; the alarm handler
bumps the priority and re-enqueues via the Pre-Enqueue function::

    async_event e = (curr_time - f.age >= threshold)
    alarm-func(e):      ordered_list.dequeue(f)
    alarm-handler(f):   f.age = curr_time
                        f.priority = f.priority - 1
                        pre-enqueue-func(f)
"""

from __future__ import annotations

from typing import List

from repro.sched.framework import PieoScheduler, SchedulerContext
from repro.sched.priority import StrictPriority
from repro.sim.events import Simulator
from repro.sim.flow import FlowQueue


class AgingStrictPriority(StrictPriority):
    """Strict priority whose alarm handler implements priority aging."""

    name = "strict-priority-aging"

    def post_dequeue(self, ctx: SchedulerContext, flow: FlowQueue) -> None:
        flow.state["age"] = ctx.now
        super().post_dequeue(ctx, flow)

    def alarm_handler(self, ctx: SchedulerContext, flow: FlowQueue) -> None:
        flow.state["age"] = ctx.now
        flow.priority -= 1
        self.pre_enqueue(ctx, flow)


def starving_flows(scheduler: PieoScheduler, now: float,
                   threshold: float) -> List[FlowQueue]:
    """Flows matching the async event (waited >= threshold unserved)."""
    result = []
    for flow in scheduler.flows.values():
        if flow.is_empty:
            continue
        age = flow.state.get("age", 0.0)
        if now - age >= threshold:
            result.append(flow)
    return result


def install_aging_monitor(sim: Simulator, scheduler: PieoScheduler,
                          threshold: float, period: float,
                          end_time: float) -> None:
    """Periodically fire the alarm function for starving flows.

    Models the hardware's asynchronous event detector with a polling
    event in the discrete-event simulation.
    """
    if period <= 0 or threshold <= 0:
        raise ValueError("threshold and period must be positive")

    def tick() -> None:
        for flow in starving_flows(scheduler, sim.now, threshold):
            scheduler.run_alarm(flow.flow_id, sim.now)
        if sim.now + period <= end_time:
            sim.post(sim.now + period, tick)

    sim.post(sim.now + period, tick)
