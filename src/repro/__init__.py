"""PIEO: Fast, Scalable, and Programmable Packet Scheduler in Hardware.

A complete Python reproduction of Shrivastav, SIGCOMM 2019: the PIEO
(Push-In-Extract-Out) scheduling primitive, a cycle-accurate model of its
O(sqrt(N)) hardware design, the PIFO and FIFO baselines, the
programming framework with every scheduling algorithm from the paper, a
discrete-event network substrate, and the full evaluation harness.

Quickstart
----------
>>> from repro import Element, make_list
>>> pieo = make_list("reference")
>>> pieo.enqueue(Element(flow_id="a", rank=10, send_time=5))
>>> pieo.enqueue(Element(flow_id="b", rank=3, send_time=50))
>>> pieo.dequeue(now=7).flow_id   # "b" has smaller rank but is ineligible
'a'

The same call with ``"hardware"`` swaps the semantic oracle for the
cycle-accurate hardware model — see :mod:`repro.core.backends`.
"""

from repro._lazy import lazy_namespace

__version__ = "1.0.0"

_EXPORTS = {
    "repro.core.backends": ("BackendSpec", "DEFAULT_BACKEND",
                            "available_backends", "get_backend",
                            "make_factory", "make_list",
                            "register_backend", "unregister_backend"),
    "repro.core.element": ("ALWAYS_ELIGIBLE", "NEVER_ELIGIBLE", "Element"),
    "repro.core.interfaces": ("OrderedList", "PieoList"),
    "repro.core.opstats": ("OpCounters",),
    "repro.core.pieo.hardware_list": ("PieoHardwareList",),
    "repro.core.pifo.flipflop_list": ("PifoDesignPieoList",
                                      "PifoHardwareList"),
    "repro.core.reference": ("ReferencePieo",),
    "repro.errors": ("CapacityError", "ConfigurationError",
                     "DuplicateFlowError", "InvariantViolation",
                     "ReproError", "SimulationError", "UnknownFlowError"),
}

__all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
__all__.append("__version__")
