"""Measurement and analysis helpers for the evaluation harness."""

from repro._lazy import lazy_namespace

_EXPORTS = {
    "repro.analysis.deviation": ("inversions", "kendall_tau_distance",
                                 "max_deviation", "mean_deviation",
                                 "positionwise_deviation"),
    "repro.analysis.fairness": ("jains_index",),
    "repro.analysis.quantiles": ("exact_quantile",),
}

__all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
