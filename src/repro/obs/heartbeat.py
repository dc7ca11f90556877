"""Sweep heartbeat: is a long sweep still alive?

:class:`SweepHeartbeat` reports liveness for
:func:`repro.experiments.runner.run_sweep`: points completed, per-point
wall time, ETA, and worker health, surfaced on a stream (stderr by
default) and as ``mark`` trace events.  :data:`NULL_HEARTBEAT` is the
do-nothing default.  This is a leaf module, so sweeps load it without
the analysis and export code of :mod:`repro.obs`.
"""

from __future__ import annotations

import sys
import time
from typing import List, Optional

from repro.obs.scope import NULL_SPAN


class _HeartbeatPoint:
    """Times one sweep point and reports it on exit."""

    __slots__ = ("_heartbeat", "index", "_began")

    def __init__(self, heartbeat: "SweepHeartbeat", index: int) -> None:
        self._heartbeat = heartbeat
        self.index = index
        self._began = 0.0

    def __enter__(self) -> "_HeartbeatPoint":
        self._began = self._heartbeat._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = self._heartbeat._clock() - self._began
        if exc_type is None:
            self._heartbeat.point_done(self.index, wall)
        else:
            self._heartbeat.point_failed(self.index, exc)


class SweepHeartbeat:
    """Sweep liveness: points completed, point wall time, ETA, health.

    Every completed point emits one line on ``stream`` (stderr by
    default) and, when a tracer is attached, one ``mark`` event labelled
    ``sweep.heartbeat`` — so long sweeps are observable both at the
    terminal and in the trace.  Heartbeat marks carry wall-clock fields
    and are therefore **not** byte-identical across runs; attach one
    only when liveness matters more than trace reproducibility
    (``--heartbeat`` on the experiments CLI).
    """

    def __init__(self, label: str = "sweep", stream=None, tracer=None,
                 clock=time.perf_counter,
                 min_interval_s: float = 0.0) -> None:
        self.label = label
        self._stream = stream
        self.tracer = tracer
        self._clock = clock
        self.min_interval_s = min_interval_s
        self.total = 0
        self.done = 0
        self.failures = 0
        self.jobs = 1
        self.walls: List[float] = []
        self._began: Optional[float] = None
        self._last_emit: Optional[float] = None

    @property
    def stream(self):
        return self._stream if self._stream is not None else sys.stderr

    def _line(self, text: str) -> None:
        print(f"[{self.label}] {text}", file=self.stream, flush=True)

    def _mark(self, phase: str, **fields) -> None:
        if self.tracer is not None:
            self.tracer.mark(0.0, "sweep.heartbeat", phase=phase,
                             done=self.done, total=self.total,
                             jobs=self.jobs, failures=self.failures,
                             **fields)

    def begin(self, total: int, jobs: int = 1) -> None:
        self.total = total
        self.jobs = max(1, jobs)
        self.done = 0
        self.failures = 0
        self.walls = []
        self._began = self._clock()
        self._last_emit = None
        self._line(f"starting {total} point(s), jobs={self.jobs}")
        self._mark("begin")

    def eta_s(self) -> Optional[float]:
        if not self.walls or self.total <= self.done:
            return None
        average = sum(self.walls) / len(self.walls)
        return (self.total - self.done) * average / self.jobs

    def point(self, index: int) -> _HeartbeatPoint:
        """Context manager timing one sequential point."""
        return _HeartbeatPoint(self, index)

    def point_done(self, index: int, wall_s: float) -> None:
        self.done += 1
        self.walls.append(wall_s)
        average = sum(self.walls) / len(self.walls)
        eta = self.eta_s()
        now = self._clock()
        final = self.done >= self.total
        throttled = (self._last_emit is not None and not final
                     and now - self._last_emit < self.min_interval_s)
        if not throttled:
            self._last_emit = now
            eta_text = f", eta {eta:.2f}s" if eta is not None else ""
            self._line(f"{self.done}/{self.total} done | point {index}: "
                       f"{wall_s:.3f}s | avg {average:.3f}s{eta_text}")
        self._mark("point", point=index, wall_s=round(wall_s, 6),
                   eta_s=round(eta, 6) if eta is not None else None)

    def point_failed(self, index: int, error: BaseException) -> None:
        self.failures += 1
        self._line(f"point {index} FAILED: {error!r}")
        self._mark("failed", point=index, error=repr(error))

    def finish(self) -> None:
        elapsed = (self._clock() - self._began
                   if self._began is not None else 0.0)
        average = (sum(self.walls) / len(self.walls)
                   if self.walls else 0.0)
        health = ("all workers healthy" if self.failures == 0
                  else f"{self.failures} failure(s)")
        self._line(f"{self.done}/{self.total} points in {elapsed:.2f}s "
                   f"(avg {average:.3f}s/point, jobs={self.jobs}, "
                   f"{health})")
        self._mark("finish", elapsed_s=round(elapsed, 6))


class NullSweepHeartbeat:
    """Heartbeat that reports nothing (the ``run_sweep`` default)."""

    total = 0
    done = 0
    failures = 0

    def begin(self, total: int, jobs: int = 1) -> None:
        pass

    def point(self, index: int):
        return NULL_SPAN

    def point_done(self, index: int, wall_s: float) -> None:
        pass

    def point_failed(self, index: int, error: BaseException) -> None:
        pass

    def finish(self) -> None:
        pass


#: Shared stateless no-op heartbeat.
NULL_HEARTBEAT = NullSweepHeartbeat()
