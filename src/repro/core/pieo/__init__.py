"""Cycle-accurate model of the PIEO hardware design (Section 5)."""

from repro._lazy import lazy_namespace

_EXPORTS = {
    "repro.core.pieo.hardware_list": ("CYCLES_PER_OP", "OpTrace",
                                      "PieoHardwareList",
                                      "default_sublist_size"),
    "repro.core.pieo.structures": ("OrderedSublistArray", "PointerEntry",
                                   "Sublist"),
}

__all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
