"""Null observability objects and span scopes.

The observability layer mirrors the accounting split of
:mod:`repro.core.instrumentation`: every instrumented call site takes a
tracer/metrics pair, and the *default* pair is a family of null objects
whose methods do nothing.  The hot paths therefore stay allocation-free
when nobody is watching — the same property
:class:`~repro.core.instrumentation.NullInstrumentation` gives the
cycle-accurate hardware models.

Three families live here:

* :class:`Span` / :class:`NullSpan` — ``with tracer.span("dequeue"):``
  context managers that measure wall-clock latency of a code region and
  report it back to their tracer (or nowhere);
* :class:`NullTracer` — the do-nothing stand-in for
  :class:`repro.obs.trace.Tracer`;
* :class:`NullMetrics` (plus null counter/gauge/histogram instruments) —
  the do-nothing stand-in for :class:`repro.obs.metrics.MetricsRegistry`.

Shared stateless singletons (:data:`NULL_TRACER`, :data:`NULL_METRICS`)
serve every call site, so enabling the default path costs one attribute
load per event, no allocation.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence


class Span:
    """Wall-clock scope: measures the latency of a ``with`` region.

    On exit the duration is emitted as a ``span`` event on the owning
    tracer (microseconds, ``wall_us``), stamped with the sim time the
    span was opened with.
    """

    __slots__ = ("_tracer", "name", "sim_time", "wall_us", "_t0")

    def __init__(self, tracer, name: str, sim_time: float = 0.0) -> None:
        self._tracer = tracer
        self.name = name
        self.sim_time = sim_time
        self.wall_us: Optional[float] = None
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_us = (time.perf_counter() - self._t0) * 1e6
        self._tracer.emit(self.sim_time, "span", name=self.name,
                          wall_us=round(self.wall_us, 3))


class NullSpan:
    """Span that measures and reports nothing."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: Shared stateless no-op span.
NULL_SPAN = NullSpan()


class NullTracer:
    """Tracer that records nothing.

    Mirrors the full typed-event surface of
    :class:`repro.obs.trace.Tracer`; every method is a no-op, ``events``
    is always empty, and :meth:`span` returns the shared
    :data:`NULL_SPAN`.  Instrumented components default to the shared
    :data:`NULL_TRACER` instance so the untraced path adds only a method
    call per event site.
    """

    enabled = False

    @property
    def events(self) -> Sequence:
        return ()

    @property
    def counts(self) -> Dict[str, int]:
        return {}

    @property
    def emitted(self) -> int:
        return 0

    def emit(self, time: float, kind: str, **fields) -> None:
        pass

    def arrival(self, time, flow_id, size_bytes, packet_id=None,
                **fields) -> None:
        pass

    def enqueue(self, time, flow_id, rank, send_time, **fields) -> None:
        pass

    def dequeue(self, time, flow_id, rank=None, **fields) -> None:
        pass

    def departure(self, time, flow_id, size_bytes, packet_id=None,
                  finish=None, **fields) -> None:
        pass

    def drop(self, time, flow_id, reason="", **fields) -> None:
        pass

    def timer_arm(self, time, timer_id, deadline, *, scope,
                  **fields) -> None:
        pass

    def timer_fire(self, time, timer_id, *, scope, **fields) -> None:
        pass

    def timer_cancel(self, time, timer_id, *, scope, **fields) -> None:
        pass

    def kick(self, time, at=None, **fields) -> None:
        pass

    def link_busy(self, time, until=None, flow_id=None,
                  **fields) -> None:
        pass

    def link_idle(self, time, **fields) -> None:
        pass

    def mark(self, time, label, **fields) -> None:
        pass

    def span(self, name: str, sim_time: float = 0.0) -> NullSpan:
        return NULL_SPAN

    def events_of(self, *kinds):
        return []

    def close(self) -> None:
        pass


#: Shared stateless no-op tracer.
NULL_TRACER = NullTracer()


class NullCounter:
    """Counter that never counts."""

    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class NullGauge:
    """Gauge that never moves."""

    __slots__ = ()
    value = 0.0
    min = None
    max = None

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass


class NullHistogram:
    """Histogram that never observes."""

    __slots__ = ()
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        pass

    @property
    def mean(self) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        return 0.0


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


class NullMetrics:
    """Metrics registry that hands out null instruments.

    Stands in for :class:`repro.obs.metrics.MetricsRegistry` on the
    default path: call sites create their counters/gauges/histograms
    once at construction time, and with this registry every instrument
    is a shared no-op, so per-operation recording costs one no-op method
    call.
    """

    def counter(self, name: str) -> NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str) -> NullGauge:
        return NULL_GAUGE

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  ) -> NullHistogram:
        return NULL_HISTOGRAM

    def log_histogram(self, name: str, min_value: float = 1e-3,
                      max_value: float = 1e7,
                      growth: Optional[float] = None) -> NullHistogram:
        return NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, Dict]:
        return {}

    def to_dict(self) -> Dict[str, Dict]:
        return {}


#: Shared stateless no-op metrics registry.
NULL_METRICS = NullMetrics()
