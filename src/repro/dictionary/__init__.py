"""PIEO as an abstract dictionary data type (Section 8)."""

from repro._lazy import lazy_namespace

_EXPORTS = {
    "repro.dictionary.pieo_dict": ("PieoDict",),
}

__all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
