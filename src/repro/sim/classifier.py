"""Packet classification: map arrivals to an output (port, flow).

The first stage of the dataplane (Fig. 1's "packet classification"):
before admission and scheduling, every arriving packet is assigned to
an output port.  The repro keeps flow ids as the classification key —
a flow is pinned to one port, as in a real switch where the forwarding
lookup is per-destination, so the dataplane classifies each flow once.

Three classifiers cover the common shapes:

* :class:`StaticClassifier` — an explicit flow→port table (the incast
  experiment builds one from its "p{port}.f{i}" naming convention);
* :class:`HashClassifier` — CRC32 of the flow id modulo the port count
  (deterministic across processes, unlike builtin ``hash`` which is
  salted per interpreter — sharded sweeps must classify identically);
* :class:`FnClassifier` — wrap any ``flow_id -> port_id`` callable.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Hashable, Optional, Sequence

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


class HashClassifier(Classifier):
    """CRC32(flow id) modulo the port list.

    CRC32 (not builtin ``hash``) so the mapping is identical in every
    worker process of a sharded sweep regardless of hash salting.
    """

    def __init__(self, ports: Sequence[Hashable]) -> None:
        if not ports:
            raise ConfigurationError("HashClassifier needs >= 1 port")
        self.ports = list(ports)

    def port_of(self, flow_id: Hashable) -> Hashable:
        digest = zlib.crc32(str(flow_id).encode("utf-8"))
        return self.ports[digest % len(self.ports)]


class FnClassifier(Classifier):
    """Adapter around a plain ``flow_id -> port_id`` callable."""

    def __init__(self, fn: Callable[[Hashable], Hashable]) -> None:
        self.fn = fn

    def port_of(self, flow_id: Hashable) -> Hashable:
        return self.fn(flow_id)
