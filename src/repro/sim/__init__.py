"""Discrete-event network substrate: packets, flows, links, generators,
and the multi-port dataplane (ports, shared-buffer admission,
classification)."""

from repro.sim.buffer import (BufferManager, DropPolicy,
                              LongestQueueDrop, RedDrop, TailDrop,
                              available_drop_policies, get_drop_policy,
                              make_drop_policy, register_drop_policy)
from repro.sim.classifier import (Classifier, FnClassifier,
                                  HashClassifier, StaticClassifier)
from repro.sim.dataplane import Dataplane, single_port_dataplane
from repro.sim.engine import TransmitEngine
from repro.sim.events import EventHandle, Simulator
from repro.sim.flow import FlowQueue
from repro.sim.port import Port
from repro.sim.generators import (BackloggedSource, CbrGenerator,
                                  OnOffGenerator, PacketGenerator,
                                  PoissonGenerator)
from repro.sim.link import GBPS, Link, gbps
from repro.sim.packet import MTU_BYTES, Packet
from repro.sim.recorder import Departure, Recorder

__all__ = [
    "BufferManager",
    "Classifier",
    "Dataplane",
    "DropPolicy",
    "FnClassifier",
    "HashClassifier",
    "LongestQueueDrop",
    "Port",
    "RedDrop",
    "StaticClassifier",
    "TailDrop",
    "TransmitEngine",
    "EventHandle",
    "Simulator",
    "FlowQueue",
    "available_drop_policies",
    "get_drop_policy",
    "make_drop_policy",
    "register_drop_policy",
    "single_port_dataplane",
    "BackloggedSource",
    "CbrGenerator",
    "OnOffGenerator",
    "PacketGenerator",
    "PoissonGenerator",
    "GBPS",
    "Link",
    "gbps",
    "MTU_BYTES",
    "Packet",
    "Departure",
    "Recorder",
]
