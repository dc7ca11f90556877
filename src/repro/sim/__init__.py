"""Discrete-event network substrate: packets, flows, links, generators,
and the multi-port dataplane (ports, shared-buffer admission,
classification)."""

from repro._lazy import lazy_namespace

_EXPORTS = {
    "repro.sim.buffer": ("BufferManager", "DropPolicy", "LongestQueueDrop",
                         "RedDrop", "TailDrop", "available_drop_policies",
                         "get_drop_policy", "make_drop_policy",
                         "register_drop_policy"),
    "repro.sim.classifier": ("Classifier", "StaticClassifier"),
    "repro.sim.dataplane": ("Dataplane",),
    "repro.sim.port": ("Port",),
    "repro.sim.engine": ("TransmitEngine",),
    "repro.sim.events": ("EventHandle", "Simulator"),
    "repro.sim.flow": ("FlowQueue",),
    "repro.sim.generators": ("BackloggedSource", "CbrGenerator",
                             "OnOffGenerator", "PacketGenerator",
                             "PoissonGenerator"),
    "repro.sim.link": ("GBPS", "Link", "gbps"),
    "repro.sim.packet": ("MTU_BYTES", "Packet"),
    "repro.sim.recorder": ("Departure", "Recorder"),
}

__all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
