"""Multi-level feedback queue scheduling (Section 2.3, ref. [4]).

PIAS-style information-agnostic flow scheduling [Bai et al., NSDI 2015]:
approximate Shortest-Job-First without knowing job sizes, by demoting a
flow through priority levels as it sends more bytes.  Hardware
implementations use one FIFO per level; on PIEO the whole policy is a
rank function:

* ``rank = level(bytes_sent)`` — the index of the first demotion
  threshold the flow has not yet crossed,
* predicate always true (work conserving),
* FIFO order within a level falls out of PIEO's rank tie-break.

Short flows finish while still at high priority (small rank); long flows
sink to the bottom level and share it round-robin.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.element import ALWAYS_ELIGIBLE
from repro.errors import ConfigurationError
from repro.sched.base import SchedulingAlgorithm
from repro.sched.framework import SchedulerContext
from repro.sim.flow import FlowQueue


class MultiLevelFeedbackQueue(SchedulingAlgorithm):
    """MLFQ / PIAS on the PIEO primitive.

    Parameters
    ----------
    thresholds_bytes:
        Ascending demotion thresholds; a flow that has sent ``b`` bytes
        sits at level ``#{t : t <= b}`` (level 0 is the highest
        priority, ``len(thresholds)`` the lowest).
    """

    name = "mlfq"

    def __init__(self, thresholds_bytes: Sequence[float]) -> None:
        thresholds = list(thresholds_bytes)
        if not thresholds:
            raise ConfigurationError("need at least one threshold")
        if thresholds != sorted(thresholds) or thresholds[0] <= 0:
            raise ConfigurationError(
                "thresholds must be positive and ascending")
        if len(set(thresholds)) != len(thresholds):
            raise ConfigurationError("thresholds must be distinct")
        self.thresholds = thresholds

    def level_of(self, flow: FlowQueue) -> int:
        sent = flow.state.get("mlfq_bytes_sent", 0.0)
        level = 0
        for threshold in self.thresholds:
            if sent >= threshold:
                level += 1
        return level

    def pre_enqueue(self, ctx: SchedulerContext, flow: FlowQueue) -> None:
        ctx.enqueue(flow, rank=self.level_of(flow),
                    send_time=ALWAYS_ELIGIBLE)

    def post_dequeue(self, ctx: SchedulerContext, flow: FlowQueue) -> None:
        packet = ctx.transmit_head(flow)
        if packet is not None:
            flow.state["mlfq_bytes_sent"] = flow.state.get(
                "mlfq_bytes_sent", 0.0) + packet.size_bytes
        if not flow.is_empty:
            ctx.reenqueue(flow)
