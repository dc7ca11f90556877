"""Core scheduling primitives: elements, PIEO, PIFO, and the ordered-list
backend registry."""

from repro._lazy import lazy_namespace

_EXPORTS = {
    "repro.core.backends": ("DEFAULT_BACKEND", "BackendSpec",
                            "available_backends", "get_backend",
                            "make_factory", "make_list",
                            "register_backend", "unregister_backend"),
    "repro.core.element": ("ALWAYS_ELIGIBLE", "NEVER_ELIGIBLE", "Element",
                           "Rank", "Time"),
    "repro.core.interfaces": ("OrderedList", "PieoList"),
    "repro.core.opstats": ("OpCounters",),
    "repro.core.pieo.hardware_list": ("CYCLES_PER_OP", "PieoHardwareList"),
    "repro.core.pifo.flipflop_list": ("PIFO_CYCLES_PER_OP",
                                      "PifoDesignPieoList",
                                      "PifoHardwareList"),
    "repro.core.reference": ("ReferencePieo",),
}

__all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
