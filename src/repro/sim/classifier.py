"""Packet classification: map arrivals to an output (port, flow).

The first stage of the dataplane (Fig. 1's "packet classification"):
before admission and scheduling, every arriving packet is assigned to
an output port.  The repro keeps flow ids as the classification key —
a flow is pinned to one port, as in a real switch where the forwarding
lookup is per-destination, so the dataplane classifies each flow once.

:class:`StaticClassifier` is an explicit flow→port table (the incast
experiment builds one from its "p{port}.f{i}" naming convention); the
fabric's switches route with
:class:`~repro.net.switch.NextHopClassifier`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.errors import ConfigurationError


class Classifier:
    """Maps a flow id to the output port that must carry it."""

    def port_of(self, flow_id: Hashable) -> Hashable:
        """The port id that carries ``flow_id``.

        Contract: the answer is per-flow constant — a function of the
        flow id alone, the same on every call.  A
        :class:`~repro.sim.dataplane.Dataplane` relies on it: it asks
        once per flow, on the flow's first arrival, and sends every
        later packet of the flow to the same port without asking again.
        """
        raise NotImplementedError


class StaticClassifier(Classifier):
    """Explicit flow→port mapping with an optional default port."""

    def __init__(self, mapping: Dict[Hashable, Hashable],
                 default: Optional[Hashable] = None) -> None:
        self.mapping = dict(mapping)
        self.default = default

    def port_of(self, flow_id: Hashable) -> Hashable:
        port = self.mapping.get(flow_id, self.default)
        if port is None:
            raise ConfigurationError(
                f"no port mapping for flow {flow_id!r} and no default")
        return port

