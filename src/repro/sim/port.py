"""Port: one scheduler + link + transmit engine, packaged as a unit.

The paper's hardware block diagram (Fig. 1) attaches one PIEO scheduler
to each output link; a switch is N of those around a shared packet
memory.  :class:`Port` is that unit in the repro — it owns the
scheduler, the :class:`~repro.sim.link.Link`, and the
:class:`~repro.sim.engine.TransmitEngine` driving them, and wires the
optional shared :class:`~repro.sim.buffer.BufferManager` into the
engine's admission/release hooks.

The packet path, one frame per layer::

    arrival   Dataplane.arrival_sink (or FabricSwitch.ingest /
              Host.inject): the flow's cached engine sink
    admit     TransmitEngine.arrival_sink -> BufferManager.admit
    schedule  scheduler.on_arrival ... scheduler.schedule
    release   BufferManager.release, as the packet leaves the wire
    forward   on_departure(packet) (next hop in :mod:`repro.net`)

What the constructor binds: ``admission`` is ``partial(buffer.admit,
port_id)``, which the engine calls with the ``now`` it already holds;
``release`` is ``partial(buffer.release, port_id)``, which the engine
calls before ``on_departure`` so occupancy is credited back ahead of
any re-injection; push-out policies reach this port's flow queues
through ``scheduler.flows.get``.  The port itself adds no frame to the
packet path.

Observability: the port hands its engine a
:class:`~repro.obs.trace.LabelledTracer` view stamping ``port=<id>``
on every event and a :class:`~repro.obs.metrics.ScopedMetrics` view
prefixing instruments with ``port.<id>``, so one tracer/registry pair
serves the whole dataplane while streams stay separable per port.
Pass ``label=False`` (the single-port compatibility path) to skip both
views and reproduce bare-engine output bit-identically.
"""

from __future__ import annotations

from functools import partial
from typing import Hashable, Optional

from repro.obs.metrics import scoped
from repro.obs.trace import labelled
from repro.sim.engine import TransmitEngine
from repro.sim.events import Simulator
from repro.sim.flow import FlowQueue
from repro.sim.link import Link
from repro.sim.recorder import Recorder


class Port:
    """One output port of a :class:`~repro.sim.dataplane.Dataplane`.

    ``scheduler`` and ``link`` are constructed by the caller (use
    :meth:`Dataplane.add_port` for the factory-style wiring that labels
    their observers too).  ``buffer`` is the shared
    :class:`~repro.sim.buffer.BufferManager`; when given, arrivals pass
    through ``buffer.admit`` before the scheduler sees them and every
    transmission credits occupancy back via ``buffer.release``.

    ``on_departure(packet)`` runs after every transmission, once the
    engine has stamped ``packet.departure_time`` (and after the buffer
    release, so occupancy accounting stays ahead of any re-injection).
    The :mod:`repro.net` fabric uses it to forward packets to the next
    hop; without it behaviour is unchanged.
    """

    def __init__(self, port_id: Hashable, sim: Simulator, scheduler,
                 link: Link, buffer=None,
                 recorder: Optional[Recorder] = None,
                 tracer=None, metrics=None,
                 drain: Optional[bool] = None,
                 label: bool = True,
                 on_departure=None) -> None:
        self.port_id = port_id
        self.sim = sim
        self.scheduler = scheduler
        self.link = link
        self.buffer = buffer
        if label:
            tracer = labelled(tracer, port=str(port_id))
            metrics = scoped(metrics, f"port.{port_id}") \
                if metrics is not None else None
        self.tracer = tracer
        self.metrics = metrics
        admission = release = None
        if buffer is not None:
            admission = partial(buffer.admit, port_id)
            release = partial(buffer.release, port_id)
            flows = getattr(scheduler, "flows", None)
            if flows is not None:
                buffer.attach_port(port_id, flows.get)
        self.engine = TransmitEngine(
            sim, scheduler, link, recorder=recorder, tracer=tracer,
            metrics=metrics, drain=drain, admission=admission,
            release=release, departure_hook=on_departure)
        self.recorder = self.engine.recorder
        #: The port's entry point: its engine's ``arrival_sink``, bound
        #: once and shared by every flow the dataplane routes here.
        self.arrival_sink = self.engine.arrival_sink

    def flow_queue(self, flow_id: Hashable) -> Optional[FlowQueue]:
        """The live :class:`FlowQueue` for ``flow_id`` (the lookup
        push-out victims resolve through); None when the scheduler does
        not expose per-flow queues or the flow is unknown."""
        flows = getattr(self.scheduler, "flows", None)
        if flows is None:
            return None
        return flows.get(flow_id)

    def add_departure_listener(self, flow_id: Hashable,
                               callback) -> None:
        self.engine.add_departure_listener(flow_id, callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Port({self.port_id!r})"
