"""Deficit Round Robin (Section 4.1; Shreedhar & Varghese 1996).

DRR schedules flows in round-robin order; a scheduled flow transmits
packets until its credit (``deficit_counter``) runs out.

Expressed on PIEO exactly as in the paper: the Pre-Enqueue function is the
*default* one (rank 1, always eligible) — the PIEO FIFO tie-break among
equal ranks *is* the round-robin order, because each served flow
re-enqueues behind every other waiting flow.  Only Post-Dequeue is
customised, with the paper's deficit loop.
"""

from __future__ import annotations

from collections import deque

from repro.sched.base import SchedulingAlgorithm
from repro.sched.framework import SchedulerContext
from repro.sim.flow import FlowQueue
from repro.sim.packet import MTU_BYTES


class DeficitRoundRobin(SchedulingAlgorithm):
    """DRR with per-flow quanta of ``quantum_bytes * flow.weight``."""

    name = "drr"

    def __init__(self, quantum_bytes: int = MTU_BYTES) -> None:
        if quantum_bytes <= 0:
            raise ValueError("quantum must be positive")
        self.quantum_bytes = quantum_bytes

    def post_dequeue(self, ctx: SchedulerContext, flow: FlowQueue) -> None:
        state = flow.state
        deficit = (state.get("deficit_counter", 0.0)
                   + self.quantum_bytes * flow.weight)
        # A leaf flow's head size is read off its deque; a hierarchical
        # class node (whose ``queue`` is a backlog flag) peeks its
        # subtree for it.
        leaf = type(flow.queue) is deque
        while flow.queue:
            size = flow.queue[0].size_bytes if leaf else flow.head_size()
            if deficit < size:
                break
            deficit -= size
            ctx.transmit_head(flow)
        if flow.queue:
            state["deficit_counter"] = deficit
            ctx.reenqueue(flow)
        else:
            state["deficit_counter"] = 0.0
