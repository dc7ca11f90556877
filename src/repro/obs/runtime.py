"""Wall-clock runtime telemetry: who burns the host CPU, and is the
run still alive?

Everything else in :mod:`repro.obs` observes *simulated* time.  This
module observes the **host**: which repro component (event queue,
ordered-list backend, scheduler framework, buffer admission, analyzer)
actually consumes wall-clock time, and — for long sweeps — whether the
run is still making progress.  Two families live here, and the
third is re-exported:

* :class:`PhaseTimer` / :class:`RuntimeProfiler` — deterministic scoped
  phase timers (the :class:`repro.obs.scope.Span` idea, extended to
  nested exclusive-time accounting with an injectable clock) plus an
  optional background :class:`SamplingProfiler` whose samples are
  attributed to repro components by walking the stack
  (:func:`attribute_stack`).  The combined result is a
  :class:`RuntimeReport` with self-accounted profiler overhead.
* :class:`NullRuntimeProfiler` — the do-nothing stand-in mirroring
  :class:`~repro.obs.scope.NullTracer`: ``phase()`` hands back the
  shared null span, ``report()`` is empty, and the profiled code path
  is byte-identical to an uninstrumented run.
* :class:`SweepHeartbeat` — liveness reporting for
  :func:`repro.experiments.runner.run_sweep`, defined in the leaf
  module :mod:`repro.obs.heartbeat` so sweeps do not load the profiler.

Sampling caveats: the sampler reads ``sys._current_frames()`` from a
daemon thread, so it sees the target thread only at sample boundaries —
attribution is statistical (±1 sample per interval), blind to C-level
time inside a single bytecode, and samples landing in stdlib frames are
charged to the nearest repro caller on the stack.  Anything with no
repro frame at all is charged to :data:`OTHER`.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

# The heartbeat lives in a leaf module; its names stay importable here.
from repro.obs.heartbeat import NULL_HEARTBEAT  # noqa: F401
from repro.obs.heartbeat import NullSweepHeartbeat  # noqa: F401
from repro.obs.heartbeat import SweepHeartbeat  # noqa: F401
from repro.obs.scope import NULL_SPAN

#: Attribution bucket for stacks containing no repro frame.
OTHER = "other"
#: Dotted-module depth kept when naming a component:
#: ``repro.core.pieo.structures`` -> ``core.pieo``.
COMPONENT_DEPTH = 2
#: Default sampling interval (seconds).
DEFAULT_INTERVAL_S = 0.002
#: Schema tag stamped on serialized runtime reports.
RUNTIME_SCHEMA_VERSION = 1

#: Modules never credited with samples: the profiler itself would
#: otherwise absorb samples that land in its own bookkeeping.
_SELF_MODULES = ("repro.obs.runtime",)


def component_of(module: Optional[str]) -> Optional[str]:
    """Map a module name to its repro component, or ``None``.

    ``repro.sim.events`` -> ``sim.events``; ``repro.errors`` ->
    ``errors``; profiler-internal and non-repro modules -> ``None``.
    """
    if not module:
        return None
    if module in _SELF_MODULES:
        return None
    if module == "repro":
        return "repro"
    if not module.startswith("repro."):
        return None
    parts = module.split(".")[1:]
    return ".".join(parts[:COMPONENT_DEPTH])


def attribute_stack(modules: Iterable[Optional[str]]) -> str:
    """Attribute one sampled stack, given module names innermost first.

    The innermost frame that belongs to a repro component wins, so
    stdlib time (``heapq`` called from ``repro.sim.events``) is charged
    to its repro caller.  Stacks with no repro frame return
    :data:`OTHER`.
    """
    for module in modules:
        component = component_of(module)
        if component is not None:
            return component
    return OTHER


def attribute_frame(frame) -> str:
    """Attribute a live frame object (innermost) via its caller chain."""
    modules: List[Optional[str]] = []
    while frame is not None:
        modules.append(frame.f_globals.get("__name__"))
        frame = frame.f_back
    return attribute_stack(modules)


# ----------------------------------------------------------------------
# Deterministic scoped phase timers
# ----------------------------------------------------------------------
class _Phase:
    """Context manager for one :meth:`PhaseTimer.phase` scope."""

    __slots__ = ("_timer", "name")

    def __init__(self, timer: "PhaseTimer", name: str) -> None:
        self._timer = timer
        self.name = name

    def __enter__(self) -> "_Phase":
        self._timer._enter(self.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._timer._exit(self.name)


class PhaseTimer:
    """Nested scoped phase timers with *exclusive* wall accounting.

    ``with timer.phase("run"): ...`` charges wall time to ``"run"``
    except while a nested phase is open — the exclusive times of all
    phases sum to the total time spent inside any phase, so a phase
    breakdown is also an attribution.  The clock is injectable, which
    makes the accounting deterministic under test.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[str] = []
        self._mark = 0.0

    def _charge(self, now: float) -> None:
        if self._stack:
            top = self._stack[-1]
            self.totals[top] = self.totals.get(top, 0.0) \
                + (now - self._mark)
        self._mark = now

    def _enter(self, name: str) -> None:
        self._charge(self._clock())
        self._stack.append(name)
        self.totals.setdefault(name, 0.0)
        self.counts[name] = self.counts.get(name, 0) + 1

    def _exit(self, name: str) -> None:
        self._charge(self._clock())
        if not self._stack or self._stack[-1] != name:
            raise RuntimeError(
                f"phase nesting violated: exiting {name!r} but stack "
                f"is {self._stack!r}")
        self._stack.pop()

    def phase(self, name: str) -> _Phase:
        return _Phase(self, name)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {name: {"wall_s": self.totals[name],
                       "count": self.counts.get(name, 0)}
                for name in self.totals}


# ----------------------------------------------------------------------
# Background sampling profiler
# ----------------------------------------------------------------------
class SamplingProfiler:
    """Thread-based stack sampler attributing host time to components.

    Samples the target thread (by default the thread that calls
    :meth:`start`) every ``interval_s`` seconds via
    ``sys._current_frames()`` and attributes each stack with
    :func:`attribute_frame`.  Time spent inside the sampler's own loop
    body is self-accounted in :attr:`overhead_s`, so reports can state
    how much of the measured wall clock the measurement itself cost.
    """

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S,
                 target_thread_id: Optional[int] = None,
                 clock=time.perf_counter) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self._target = target_thread_id
        self._clock = clock
        self.samples: Dict[str, int] = {}
        self.total_samples = 0
        self.overhead_s = 0.0
        self.wall_s = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("sampling profiler already running")
        if self._target is None:
            self._target = threading.get_ident()
        self._stop.clear()
        self._started_at = self._clock()
        self._thread = threading.Thread(
            target=self._loop, name="repro-sampling-profiler",
            daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            began = self._clock()
            frame = sys._current_frames().get(self._target)
            if frame is not None:
                component = attribute_frame(frame)
                self.samples[component] = \
                    self.samples.get(component, 0) + 1
                self.total_samples += 1
            del frame
            self.overhead_s += self._clock() - began

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join()
        self._thread = None
        if self._started_at is not None:
            self.wall_s += self._clock() - self._started_at
            self._started_at = None
        return self


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class RuntimeReport:
    """Combined wall-clock profile: samples, phases, self-overhead."""

    wall_s: float = 0.0
    interval_s: float = DEFAULT_INTERVAL_S
    samples: Dict[str, int] = field(default_factory=dict)
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    overhead_s: float = 0.0

    @property
    def total_samples(self) -> int:
        return sum(self.samples.values())

    def fractions(self) -> Dict[str, float]:
        total = self.total_samples
        if total == 0:
            return {}
        return {component: count / total
                for component, count in self.samples.items()}

    def attributed_fraction(self) -> float:
        """Share of samples landing in a *named* repro component."""
        total = self.total_samples
        if total == 0:
            return 0.0
        return 1.0 - self.samples.get(OTHER, 0) / total

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": RUNTIME_SCHEMA_VERSION,
            "kind": "runtime_profile",
            "wall_s": self.wall_s,
            "interval_s": self.interval_s,
            "samples": dict(self.samples),
            "phases": {name: dict(stats)
                       for name, stats in self.phases.items()},
            "overhead_s": self.overhead_s,
            "attributed_fraction": self.attributed_fraction(),
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "RuntimeReport":
        if not isinstance(record, dict):
            raise ValueError("runtime profile is not a JSON object")
        version = record.get("schema_version")
        if version != RUNTIME_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported runtime profile schema {version!r}; "
                f"expected {RUNTIME_SCHEMA_VERSION}")
        if record.get("kind") != "runtime_profile":
            raise ValueError(
                f"not a runtime profile: kind={record.get('kind')!r}")
        samples = record.get("samples", {})
        phases = record.get("phases", {})
        if not isinstance(samples, dict) or not isinstance(phases, dict):
            raise ValueError(
                "runtime profile samples/phases must be objects")
        for component, count in samples.items():
            if not isinstance(count, int) or count < 0:
                raise ValueError(
                    f"sample count for {component!r} must be a "
                    f"non-negative integer, got {count!r}")
        return cls(wall_s=float(record.get("wall_s", 0.0)),
                   interval_s=float(record.get(
                       "interval_s", DEFAULT_INTERVAL_S)),
                   samples={str(k): v for k, v in samples.items()},
                   phases={str(k): dict(v) for k, v in phases.items()},
                   overhead_s=float(record.get("overhead_s", 0.0)))

    def merge(self, other: "RuntimeReport") -> "RuntimeReport":
        """Accumulate another report (e.g. per-round profiles) into a
        new combined report; intervals must match."""
        merged = RuntimeReport(
            wall_s=self.wall_s + other.wall_s,
            interval_s=self.interval_s,
            samples=dict(self.samples),
            phases={name: dict(stats)
                    for name, stats in self.phases.items()},
            overhead_s=self.overhead_s + other.overhead_s)
        for component, count in other.samples.items():
            merged.samples[component] = \
                merged.samples.get(component, 0) + count
        for name, stats in other.phases.items():
            into = merged.phases.setdefault(
                name, {"wall_s": 0.0, "count": 0})
            into["wall_s"] += stats.get("wall_s", 0.0)
            into["count"] += stats.get("count", 0)
        return merged

    def to_text(self) -> str:
        lines = [
            f"runtime profile: {self.wall_s:.3f} s wall, "
            f"{self.total_samples} samples @ "
            f"{self.interval_s * 1e3:.1f} ms, "
            f"{self.attributed_fraction() * 100:.1f}% attributed to "
            f"repro components, sampler overhead {self.overhead_s:.4f} s"
        ]
        fractions = self.fractions()
        for component, fraction in sorted(
                fractions.items(), key=lambda item: -item[1]):
            lines.append(f"  {component:<22s} {fraction * 100:6.1f}%  "
                         f"({self.samples[component]} samples)")
        if self.phases:
            lines.append("phases (exclusive wall):")
            for name, stats in sorted(
                    self.phases.items(),
                    key=lambda item: -item[1].get("wall_s", 0.0)):
                lines.append(
                    f"  {name:<22s} {stats.get('wall_s', 0.0):8.3f} s  "
                    f"x{int(stats.get('count', 0))}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Profiler facades (live + null)
# ----------------------------------------------------------------------
class RuntimeProfiler:
    """Scoped phase timers plus an optional background sampler.

    ``with RuntimeProfiler() as profiler: ...`` (or explicit
    ``start()``/``stop()``) brackets the profiled region;
    ``profiler.phase("run")`` scopes deterministic phase accounting
    inside it; :meth:`report` returns the combined
    :class:`RuntimeReport`.
    """

    enabled = True

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S,
                 sample: bool = True, clock=time.perf_counter) -> None:
        self._clock = clock
        self.phases = PhaseTimer(clock=clock)
        self.sampler = (SamplingProfiler(interval_s, clock=clock)
                        if sample else None)
        self.interval_s = interval_s
        self._started_at: Optional[float] = None
        self._wall_s = 0.0

    def start(self) -> "RuntimeProfiler":
        if self._started_at is not None:
            raise RuntimeError("runtime profiler already started")
        self._started_at = self._clock()
        if self.sampler is not None:
            self.sampler.start()
        return self

    def stop(self) -> "RuntimeProfiler":
        if self.sampler is not None:
            self.sampler.stop()
        if self._started_at is not None:
            self._wall_s += self._clock() - self._started_at
            self._started_at = None
        return self

    def __enter__(self) -> "RuntimeProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def phase(self, name: str) -> _Phase:
        return self.phases.phase(name)

    def report(self) -> RuntimeReport:
        return RuntimeReport(
            wall_s=self._wall_s,
            interval_s=self.interval_s,
            samples=dict(self.sampler.samples)
            if self.sampler is not None else {},
            phases=self.phases.snapshot(),
            overhead_s=self.sampler.overhead_s
            if self.sampler is not None else 0.0)


class NullRuntimeProfiler:
    """Runtime profiler that measures nothing (mirrors ``NullTracer``).

    ``phase()`` hands back the shared stateless null span,
    ``start``/``stop`` are no-ops, and ``report()`` is empty — so the
    disabled path adds one no-op method call per phase site and zero
    background threads.
    """

    enabled = False

    def start(self) -> "NullRuntimeProfiler":
        return self

    def stop(self) -> "NullRuntimeProfiler":
        return self

    def __enter__(self) -> "NullRuntimeProfiler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def phase(self, name: str):
        return NULL_SPAN

    def report(self) -> RuntimeReport:
        return RuntimeReport()


#: Shared stateless no-op runtime profiler.
NULL_RUNTIME_PROFILER = NullRuntimeProfiler()
