"""Cycle-accurate model of the PIFO baseline and its PIEO-capable variant."""

from repro._lazy import lazy_namespace

_EXPORTS = {
    "repro.core.pifo.flipflop_list": ("PIFO_CYCLES_PER_OP",
                                      "PifoDesignPieoList",
                                      "PifoHardwareList"),
}

__all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
