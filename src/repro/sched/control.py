"""Control-plane interface (Sections 2.1 and 3.2).

Fig. 1 shows the scheduling state shared between the data path and a
control plane: "this state could also be accessed and configured by the
control plane.  The control plane can use the memory to store control
states, e.g., per-flow rate-limit value or QoS priority."

:class:`ControlPlane` is that interface for a running scheduler.  Reads
are plain state accesses.  Writes that affect an element already
resident in the ordered list are applied through the asynchronous alarm
path of Section 4.4 — ``dequeue(f)``, mutate, re-run the Pre-Enqueue
function — so the new attributes take effect immediately rather than at
the flow's next natural re-enqueue.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.errors import ConfigurationError
from repro.sched.base import TriggerModel
from repro.sched.framework import PieoScheduler, SchedulerContext
from repro.sim.flow import FlowQueue


class ControlPlane:
    """Runtime configuration of per-flow scheduling state."""

    def __init__(self, scheduler: PieoScheduler) -> None:
        self.scheduler = scheduler
        #: Audit log of configuration writes: (time, flow_id, key, value).
        self.audit_log = []

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def flow_state(self, flow_id: Hashable) -> Dict[str, float]:
        """The per-flow scheduling state (a live view)."""
        return self.scheduler.get_flow(flow_id).state

    def global_state(self) -> Dict[str, float]:
        return self.scheduler.state

    def flow_config(self, flow_id: Hashable) -> Dict[str, float]:
        flow = self.scheduler.get_flow(flow_id)
        return {
            "weight": flow.weight,
            "rate_bps": flow.rate_bps,
            "priority": flow.priority,
            "group": flow.group,
        }

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def set_rate_limit(self, flow_id: Hashable, rate_bps: float,
                       now: float = 0.0,
                       burst_bytes: Optional[float] = None) -> None:
        """Configure a flow's shaping rate (and optionally its burst
        allowance), re-ranking it live if resident."""
        if rate_bps <= 0:
            raise ConfigurationError("rate must be positive")
        flow = self.scheduler.get_flow(flow_id)

        def apply(mutated: FlowQueue) -> None:
            mutated.rate_bps = rate_bps
            if burst_bytes is not None:
                mutated.state["burst_bytes"] = burst_bytes

        self._write(flow, "rate_bps", rate_bps, now, apply)

    def set_weight(self, flow_id: Hashable, weight: float,
                   now: float = 0.0) -> None:
        """Configure a fair-queuing weight."""
        if weight <= 0:
            raise ConfigurationError("weight must be positive")
        flow = self.scheduler.get_flow(flow_id)
        self._write(flow, "weight", weight, now,
                    lambda mutated: setattr(mutated, "weight", weight))

    def set_priority(self, flow_id: Hashable, priority: int,
                     now: float = 0.0) -> None:
        """Configure a QoS priority."""
        flow = self.scheduler.get_flow(flow_id)
        self._write(flow, "priority", priority, now,
                    lambda mutated: setattr(mutated, "priority", priority))

    def set_state(self, flow_id: Hashable, key: str, value: float,
                  now: float = 0.0) -> None:
        """Write an algorithm-specific per-flow state entry (e.g. an EDF
        deadline offset)."""
        flow = self.scheduler.get_flow(flow_id)
        self._write(flow, key, value, now,
                    lambda mutated: mutated.state.__setitem__(key, value))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _write(self, flow: FlowQueue, key: str, value, now: float,
               apply) -> None:
        self.audit_log.append((now, flow.flow_id, key, value))
        resident = flow.flow_id in self.scheduler.ordered_list
        if not resident:
            apply(flow)
            return
        # Live update via the Section 4.4 path: extract, mutate,
        # re-enqueue through the Pre-Enqueue function.
        self.scheduler._list_dequeue_flow(flow.flow_id, now=now)
        apply(flow)
        if self.scheduler.trigger is TriggerModel.INPUT:
            # Input-triggered schedulers stamped the attributes on the
            # packet at arrival; the new configuration only affects
            # packets arriving from now on (the precision loss
            # Section 3.2.1 attributes to this model).
            head = flow.head
            self.scheduler._list_enqueue(flow, head.rank, head.send_time,
                                         now=now)
        else:
            self.scheduler.algorithm.pre_enqueue(
                SchedulerContext(self.scheduler, now, reason="alarm"),
                flow)
