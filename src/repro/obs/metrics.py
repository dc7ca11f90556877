"""Counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is the aggregate companion to the event-level
:class:`repro.obs.trace.Tracer`: where the tracer answers "what happened
and when", the registry answers "how much, how deep, how long" without
retaining per-event state.  Instruments are created once by name and
updated on the hot path with O(1) work:

* :class:`Counter` — monotonically increasing totals (arrivals,
  departures, kicks, retry arms);
* :class:`Gauge` — instantaneous levels with min/max watermarks (ordered
  -list queue depth, backlog bytes);
* :class:`Histogram` — fixed-bucket distributions (schedule()-batch
  size, per-op wall-clock latency of backend calls);
* :class:`LogHistogram` — log-scaled (HDR-style) distributions with
  bounded relative error, for tail-latency analysis where fixed buckets
  quantize too coarsely.

``snapshot()`` / ``to_dict()`` return plain dicts; :meth:`write_json`
persists them.  The default (unobserved) path uses
:class:`repro.obs.scope.NullMetrics` instead, which hands out shared
no-op instruments.
"""

from __future__ import annotations

import bisect
import json
import math
from typing import Dict, List, Optional, Sequence

#: Default buckets for queue-depth style histograms.  The upper bounds
#: extend past the paper's N = 32K list sizes (Section 6) so depth
#: distributions of full-scale runs do not saturate into the overflow
#: bucket.
DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
                 2048, 4096, 8192, 16384, 32768, 65536)

#: Default buckets for microsecond latency histograms.
LATENCY_BUCKETS_US = (1, 2, 5, 10, 20, 50, 100, 200, 500,
                      1_000, 5_000, 20_000)

#: Default buckets for schedule()-batch sizes.
BATCH_BUCKETS = (0, 1, 2, 4, 8, 16, 32)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """An instantaneous level with min/max watermarks.

    The watermarks cover every value the gauge has taken since creation
    (or the last :meth:`reset`), so "queue depth never went negative" is
    checkable from a snapshot alone.

    Invariant: ``min`` and ``max`` are both ``None`` (no update yet) or
    both set, and then ``min <= value <= max``.  The hot paths that
    update a gauge by writing its attributes (the transmit engine's
    backlog gauges, the scheduler's queue depth) rely on it: after a
    rise only ``max`` can move, after a fall only ``min``.
    """

    __slots__ = ("value", "min", "max")

    def __init__(self) -> None:
        self.value = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    # inc/dec repeat set's watermark update rather than call it, so each
    # is one Python call (the buffer's occupancy and the scheduler's
    # rarer requeue and dequeue_flow paths call them).
    def inc(self, amount: float = 1) -> None:
        value = self.value = self.value + amount
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def dec(self, amount: float = 1) -> None:
        value = self.value = self.value - amount
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def reset(self) -> None:
        # Back to the no-update state of the invariant above.
        self.value = 0.0
        self.min = None
        self.max = None


class Histogram:
    """Fixed-bucket histogram.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound.  Mean/min/max are tracked
    exactly regardless of bucketing; ``min`` and ``max`` keep the
    :class:`Gauge` invariant (both ``None`` or both set), which the
    transmit engine's inlined ``observe`` relies on.
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Sequence[float] = DEPTH_BUCKETS) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(buckets)
        if list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be increasing")
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def overflow(self) -> int:
        """Observations above the last bucket bound.  Explicit so a
        saturated tail is visible in snapshots (a histogram whose
        overflow dominates needs wider buckets, not trust)."""
        return self.counts[-1]

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts (upper bound of
        the bucket holding the q-th observation; ``inf`` if it landed in
        the overflow bucket)."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                if index < len(self.buckets):
                    return float(self.buckets[index])
                return math.inf
        return math.inf  # pragma: no cover - cumulative covers count


class LogHistogram:
    """Log-scaled (HDR-style) histogram with bounded relative error.

    Bucket upper bounds grow geometrically from ``min_value`` by
    ``growth`` per bucket (default ``10 ** (1/20)``, about 12% wide, so
    any quantile is resolved to within ~6% relative error — fine enough
    for p999 tail analysis where the fixed :data:`LATENCY_BUCKETS_US`
    quantize far too coarsely).  Values at or below ``min_value`` land
    in an explicit underflow bucket; values above ``max_value`` in an
    explicit overflow bucket, so saturated tails stay visible.  Exact
    count/sum/min/max are tracked regardless of bucketing.
    """

    __slots__ = ("min_value", "growth", "bounds", "counts", "underflow",
                 "overflow", "count", "sum", "min", "max", "_log_min",
                 "_log_growth")

    def __init__(self, min_value: float = 1e-3, max_value: float = 1e7,
                 growth: Optional[float] = None) -> None:
        if min_value <= 0:
            raise ValueError("min_value must be positive")
        if max_value <= min_value:
            raise ValueError("max_value must exceed min_value")
        growth = 10.0 ** (1.0 / 20.0) if growth is None else growth
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.min_value = min_value
        self.growth = growth
        self._log_min = math.log(min_value)
        self._log_growth = math.log(growth)
        buckets = math.ceil(
            (math.log(max_value) - self._log_min) / self._log_growth)
        self.bounds = tuple(min_value * growth ** (index + 1)
                            for index in range(buckets))
        self.counts: List[int] = [0] * buckets
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= self.min_value:
            self.underflow += 1
            return
        index = int((math.log(value) - self._log_min)
                    / self._log_growth)
        # Float rounding can land one bucket low; never one high.
        while (index < len(self.bounds)
               and self.bounds[index] < value):
            index += 1
        if index >= len(self.bounds):
            self.overflow += 1
        else:
            self.counts[index] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Quantile with geometric interpolation inside the holding
        bucket, clamped to the exact observed [min, max]."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = self.underflow
        if cumulative >= target:
            value = self.min_value
        else:
            value = None
            for index, bucket_count in enumerate(self.counts):
                if bucket_count == 0:
                    continue
                if cumulative + bucket_count >= target:
                    lower = (self.min_value if index == 0
                             else self.bounds[index - 1])
                    fraction = (target - cumulative) / bucket_count
                    value = lower * self.growth ** fraction
                    break
                cumulative += bucket_count
            if value is None:  # landed in the overflow bucket
                value = self.max
        if self.min is not None:
            value = max(value, self.min)
        if self.max is not None:
            value = min(value, self.max)
        return value

    def cumulative_buckets(self) -> List[tuple]:
        """``(upper_bound, cumulative_count)`` pairs in Prometheus
        ``le`` convention; the underflow bucket surfaces as
        ``le=min_value`` and the caller adds ``+Inf`` = count."""
        pairs = [(self.min_value, self.underflow)]
        cumulative = self.underflow
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            pairs.append((bound, cumulative))
        return pairs

    def to_dict(self) -> Dict[str, object]:
        return {
            "min_value": self.min_value,
            "growth": self.growth,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "quantiles": {label: self.quantile(q) for label, q in
                          (("p50", 0.50), ("p90", 0.90),
                           ("p99", 0.99), ("p999", 0.999))},
        }


class MetricsRegistry:
    """Named instruments, created on first use, snapshotted as dicts."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._log_histograms: Dict[str, LogHistogram] = {}

    # -- instrument factories (idempotent per name) --------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                buckets if buckets is not None else DEPTH_BUCKETS)
        return instrument

    def log_histogram(self, name: str, min_value: float = 1e-3,
                      max_value: float = 1e7,
                      growth: Optional[float] = None) -> LogHistogram:
        instrument = self._log_histograms.get(name)
        if instrument is None:
            instrument = self._log_histograms[name] = LogHistogram(
                min_value=min_value, max_value=max_value, growth=growth)
        return instrument

    # -- export --------------------------------------------------------
    def to_dict(self) -> Dict[str, Dict]:
        """Plain-dict snapshot of every instrument."""
        return {
            "counters": {name: counter.value
                         for name, counter in self._counters.items()},
            "gauges": {name: {"value": gauge.value, "min": gauge.min,
                              "max": gauge.max}
                       for name, gauge in self._gauges.items()},
            "histograms": {
                name: {
                    "buckets": list(histogram.buckets),
                    "counts": list(histogram.counts),
                    "count": histogram.count,
                    "sum": histogram.sum,
                    "mean": histogram.mean,
                    "min": histogram.min,
                    "max": histogram.max,
                    "overflow": histogram.overflow,
                }
                for name, histogram in self._histograms.items()
            },
            "log_histograms": {
                name: histogram.to_dict()
                for name, histogram in self._log_histograms.items()
            },
        }

    def snapshot(self) -> Dict[str, Dict]:
        return self.to_dict()

    def write_json(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


class ScopedMetrics:
    """View of a registry that prefixes every instrument name.

    ``ScopedMetrics(registry, "port.p0")`` turns a request for
    ``engine.arrivals`` into the registry instrument
    ``port.p0.engine.arrivals`` — the per-port metrics hook: each
    :class:`~repro.sim.port.Port` hands its engine/scheduler a scoped
    view of the dataplane's single registry, and the name prefix flows
    unchanged into JSON snapshots and the Prometheus exposition (one
    series per port, no export changes needed).  Scopes nest:
    ``ScopedMetrics(scoped, "inner")`` prepends outer-first.

    This is a *view* over the shared registry — never wrap the null
    registry; use :func:`scoped` which returns null/None unchanged so
    the ``metrics is NULL_METRICS`` fast paths stay intact.
    """

    __slots__ = ("base", "prefix")

    def __init__(self, base, prefix: str) -> None:
        if not prefix:
            raise ValueError("scope prefix must be non-empty")
        if isinstance(base, ScopedMetrics):
            prefix = f"{base.prefix}.{prefix}"
            base = base.base
        self.base = base
        self.prefix = prefix

    def counter(self, name: str) -> Counter:
        return self.base.counter(f"{self.prefix}.{name}")

    def gauge(self, name: str) -> Gauge:
        return self.base.gauge(f"{self.prefix}.{name}")

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self.base.histogram(f"{self.prefix}.{name}", buckets)

    def log_histogram(self, name: str, min_value: float = 1e-3,
                      max_value: float = 1e7,
                      growth: Optional[float] = None) -> LogHistogram:
        return self.base.log_histogram(
            f"{self.prefix}.{name}", min_value=min_value,
            max_value=max_value, growth=growth)

    def to_dict(self) -> Dict[str, Dict]:
        return self.base.to_dict()

    def snapshot(self) -> Dict[str, Dict]:
        return self.base.snapshot()

    def write_json(self, path) -> None:
        self.base.write_json(path)


def scoped(metrics, prefix: str):
    """A view of ``metrics`` prefixing instrument names with ``prefix``.

    Returns ``metrics`` unchanged when it is ``None`` or the shared null
    registry, preserving the identity-checked fast paths downstream.
    """
    from repro.obs.scope import NULL_METRICS
    if metrics is None or metrics is NULL_METRICS:
        return metrics
    return ScopedMetrics(metrics, prefix)
