"""Scheduling on asynchronous network feedback (Section 4.4).

Datacenter protocols such as D3 [51] and priority-based flow control
(802.1Qbb [12]) quench and resume flows asynchronously.  The paper
expresses this with the alarm function::

    alarm-func(e):
        if pause feedback for f:  f.block = True;  ordered_list.dequeue(f)
        if resume feedback for f: f.block = False; pre-enqueue-func(f)

:class:`FeedbackChannel` delivers such events into a
:class:`~repro.sched.framework.PieoScheduler` through the simulator, with
an optional propagation delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List

from repro.sched.framework import PieoScheduler
from repro.sim.events import Simulator

PAUSE = "pause"
RESUME = "resume"


@dataclass(frozen=True)
class FeedbackEvent:
    """One pause/resume notification from the network."""

    time: float
    flow_id: Hashable
    kind: str  # PAUSE or RESUME


class FeedbackChannel:
    """Delivers pause/resume feedback to the scheduler.

    Pass the :class:`~repro.sim.engine.TransmitEngine` so a resume can
    kick the scheduling loop (a paused-then-resumed flow otherwise waits
    for the next packet arrival before transmitting again).
    """

    def __init__(self, sim: Simulator, scheduler: PieoScheduler,
                 delay: float = 0.0, engine=None) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.scheduler = scheduler
        self.delay = delay
        self.engine = engine
        self.log: List[FeedbackEvent] = []

    def pause(self, flow_id: Hashable) -> None:
        """Receive pause feedback for ``flow_id`` (applied after delay)."""
        self.sim.post(self.sim.now + self.delay,
                      lambda: self._apply(flow_id, PAUSE))

    def resume(self, flow_id: Hashable) -> None:
        """Receive resume feedback for ``flow_id``."""
        self.sim.post(self.sim.now + self.delay,
                      lambda: self._apply(flow_id, RESUME))

    def _apply(self, flow_id: Hashable, kind: str) -> None:
        now = self.sim.now
        self.log.append(FeedbackEvent(now, flow_id, kind))
        if kind == PAUSE:
            self.scheduler.pause_flow(flow_id, now)
        else:
            became_schedulable = self.scheduler.resume_flow(flow_id, now)
            if became_schedulable and self.engine is not None:
                self.engine.kick()
