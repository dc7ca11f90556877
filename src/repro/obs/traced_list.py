"""``TracedList``: observability decorator over any ordered-list backend.

Wraps a :class:`repro.core.interfaces.PieoList` and reports every
primitive operation to a tracer (typed ``enqueue``/``dequeue`` events)
and a metrics registry (per-op wall-clock latency histograms plus a
resident-depth gauge), without touching the inner engine's semantics.
Registered in :mod:`repro.core.backends` as the ``"traced"`` backend::

    make_list("traced", inner="hardware", tracer=tracer, metrics=registry)

With the default null tracer/metrics the wrapper detects that nobody is
listening and shadows its instrumented methods with the inner engine's
own bound methods, so the null path costs nothing per call and the
wrapper is safe to leave in place permanently (the overhead guarantee is
regression-tested and benchmarked in ``bench_results/obs_overhead.txt``).
"""

from __future__ import annotations

import time
from typing import Callable, Hashable, List, Optional, Tuple

from repro.core.element import Element, Time
from repro.core.interfaces import PieoList
from repro.obs.metrics import LATENCY_BUCKETS_US
from repro.obs.scope import NULL_METRICS, NULL_TRACER, NullMetrics, \
    NullTracer


class TracedList(PieoList):
    """Tracing/metrics decorator around an inner :class:`PieoList`.

    Parameters
    ----------
    inner:
        The backend doing the actual work.
    tracer:
        Receives ``enqueue``/``dequeue`` events (sim-time-stamped via
        ``clock``).
    metrics:
        Receives ``backend.<op>_us`` latency histograms and the
        ``backend.depth`` gauge.
    clock:
        Zero-argument callable supplying the sim-time stamp for trace
        events (e.g. ``lambda: sim.now``).  Defaults to constant 0 —
        backends do not know simulation time on their own.
    """

    def __init__(self, inner: PieoList, tracer=None, metrics=None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.inner = inner
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._clock = clock if clock is not None else (lambda: 0.0)
        #: Fast-path flag: with null observers, skip all timing work.
        self._observed = not (isinstance(self.tracer, NullTracer)
                              and isinstance(self.metrics, NullMetrics))
        self._h_enqueue = self.metrics.histogram(
            "backend.enqueue_us", LATENCY_BUCKETS_US)
        self._h_dequeue = self.metrics.histogram(
            "backend.dequeue_us", LATENCY_BUCKETS_US)
        self._h_dequeue_flow = self.metrics.histogram(
            "backend.dequeue_flow_us", LATENCY_BUCKETS_US)
        self._depth = self.metrics.gauge("backend.depth")
        if not self._observed:
            # Nobody is listening: shadow the instrumented methods with
            # the inner engine's own bound methods so the wrapper's cost
            # on the null path is zero, not even a flag test per call.
            self.enqueue = inner.enqueue
            self.dequeue = inner.dequeue
            self.dequeue_flow = inner.dequeue_flow
            self.peek = inner.peek
            self.min_send_time = inner.min_send_time
            self.snapshot = inner.snapshot

    # ------------------------------------------------------------------
    # Instrumented primitives
    # ------------------------------------------------------------------
    def enqueue(self, element: Element) -> None:
        if not self._observed:
            self.inner.enqueue(element)
            return
        start = time.perf_counter()
        self.inner.enqueue(element)
        self._h_enqueue.observe((time.perf_counter() - start) * 1e6)
        self._depth.set(len(self.inner))
        self.tracer.enqueue(self._clock(), element.flow_id, element.rank,
                            element.send_time)

    def dequeue(self, now: Time,
                group_range: Optional[Tuple[int, int]] = None,
                ) -> Optional[Element]:
        if not self._observed:
            return self.inner.dequeue(now, group_range=group_range)
        start = time.perf_counter()
        element = self.inner.dequeue(now, group_range=group_range)
        self._h_dequeue.observe((time.perf_counter() - start) * 1e6)
        if element is not None:
            self._depth.set(len(self.inner))
            self.tracer.dequeue(self._clock(), element.flow_id,
                                element.rank)
        else:
            self.tracer.dequeue(self._clock(), None, miss=True)
        return element

    def dequeue_flow(self, flow_id: Hashable) -> Optional[Element]:
        if not self._observed:
            return self.inner.dequeue_flow(flow_id)
        start = time.perf_counter()
        element = self.inner.dequeue_flow(flow_id)
        self._h_dequeue_flow.observe(
            (time.perf_counter() - start) * 1e6)
        if element is not None:
            self._depth.set(len(self.inner))
            self.tracer.dequeue(self._clock(), element.flow_id,
                                element.rank, op="dequeue_flow")
        return element

    # ------------------------------------------------------------------
    # Pure delegation
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.inner.capacity

    def __len__(self) -> int:
        return len(self.inner)

    def peek(self, now: Time,
             group_range: Optional[Tuple[int, int]] = None,
             ) -> Optional[Element]:
        return self.inner.peek(now, group_range=group_range)

    def min_send_time(self) -> Time:
        return self.inner.min_send_time()

    def snapshot(self) -> List[Element]:
        return self.inner.snapshot()

    def __contains__(self, flow_id: Hashable) -> bool:
        return flow_id in self.inner

    def __getattr__(self, name):
        # Backend-specific extras (e.g. the hardware model's ``counters``
        # and ``check``) pass straight through.
        return getattr(self.inner, name)
