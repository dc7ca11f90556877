"""Per-layer instrumentation, applied to the simulator from outside.

The benchmark never edits the program it measures.  Everything here
patches public methods on the simulator's classes for the length of one
run and puts the originals back afterwards:

* :func:`stamp_runs` wraps ``Simulator.run_until``/``Simulator.run`` so
  the worker knows when the first simulated event fired and when the
  run ended (one call per run, so it costs nothing per packet);
* :class:`SpanLadder` wraps the public method of each layer a packet
  crosses in a span timer and accumulates *self* time per layer (a
  span's duration minus the part its child spans cover).  The cost of
  each span is measured where it is paid and subtracted;
* :class:`CallCounter` counts every Python call by code object through
  ``sys.setprofile`` -- exact, so two runs of one commit agree to the
  call.

Layers are module names of ``repro``.  Helper modules that are not a
layer of their own are folded into the layer that owns them (see
``_FOLDED``), so span time and call counts land on the same layer.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: The layers a packet crosses, named after the modules that implement
#: them.  ``hw``, ``baselines``, ``analysis`` and ``conformance`` are on
#: no workload's packet path.
LAYERS = ("core", "sched", "sim.events", "sim.engine", "sim.buffer",
          "sim.dataplane", "sim.generators", "net.switch", "net.host",
          "net.fabric", "net.fct", "net.workload", "obs")

#: Python frames outside every layer (stdlib, experiment builders).
OTHER = "other"

#: Helper modules charged to the layer that calls them.
_FOLDED = {
    "repro.sim.flow": "sched",
    "repro.sim.link": "sim.engine",
    "repro.sim.port": "sim.engine",
    "repro.sim.recorder": "sim.engine",
    "repro.sim.classifier": "sim.dataplane",
    "repro.sim.packet": "sim.generators",
    "repro.net.routing": "net.switch",
    "repro.net.topology": "net.fabric",
}

_clock = time.perf_counter_ns


def layer_of(module: Optional[str]) -> str:
    """The layer a ``repro`` module belongs to (``other`` if none)."""
    if not module:
        return OTHER
    folded = _FOLDED.get(module)
    if folded is not None:
        return folded
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return OTHER
    if parts[1] in ("core", "sched", "obs"):
        return parts[1]
    if len(parts) >= 3 and f"{parts[1]}.{parts[2]}" in LAYERS:
        return f"{parts[1]}.{parts[2]}"
    return OTHER


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
class Patches:
    """Class attributes replaced for one run, restorable in one call."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, object]] = []

    def replace(self, cls: type, name: str,
                make: Callable[[Callable], Callable]) -> None:
        """Replace ``name`` on the class that defines it (once)."""
        owner = next(klass for klass in cls.__mro__
                     if name in vars(klass))
        if any(saved[0] is owner and saved[1] == name
               for saved in self._saved):
            return
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def stamp_runs(patches: Patches, on_start: Callable[[], None],
               on_end: Callable[[], None]) -> None:
    """Call ``on_start`` as each ``Simulator.run``/``run_until`` begins
    and ``on_end`` as it returns."""
    from repro.sim.events import Simulator

    def make(original):
        @functools.wraps(original)
        def run(*args, **kwargs):
            on_start()
            try:
                return original(*args, **kwargs)
            finally:
                on_end()
        return run

    patches.replace(Simulator, "run_until", make)
    patches.replace(Simulator, "run", make)


def span_targets() -> List[Tuple[type, str, str]]:
    """``(class, method, layer)`` for every span the ladder records,
    apart from ``Simulator.schedule`` and the callbacks it receives."""
    from repro.core.backends import available_backends, make_list
    from repro.net.fct import FctCollector
    from repro.net.host import Host
    from repro.net.switch import FabricSwitch
    from repro.obs.metrics import Counter, Gauge, Histogram, LogHistogram
    from repro.obs.trace import LabelledTracer, Tracer
    from repro.sched.framework import PieoScheduler
    from repro.sched.hierarchical import HierarchicalScheduler
    from repro.sim.buffer import BufferManager
    from repro.sim.dataplane import Dataplane
    from repro.sim.engine import TransmitEngine
    from repro.sim.events import Simulator

    targets = []
    for name in available_backends():
        backend = type(make_list(name, capacity=64))
        targets += [(backend, op, "core")
                    for op in ("enqueue", "dequeue", "dequeue_flow")]
    for scheduler in (PieoScheduler, HierarchicalScheduler):
        targets += [(scheduler, "schedule", "sched"),
                    (scheduler, "on_arrival", "sched")]
    targets += [
        (Simulator, "step", "sim.events"),
        (TransmitEngine, "arrival_sink", "sim.engine"),
        (BufferManager, "admit", "sim.buffer"),
        (BufferManager, "release", "sim.buffer"),
        (Dataplane, "arrival_sink", "sim.dataplane"),
        (FabricSwitch, "ingest", "net.switch"),
        (Host, "receive", "net.host"),
        (Host, "inject", "net.host"),
        (FctCollector, "packet_delivered", "net.fct"),
        (FctCollector, "note_residence", "net.fct"),
    ]
    targets += [(Tracer, kind, "obs") for kind in (
        "arrival", "enqueue", "dequeue", "departure", "drop",
        "timer_arm", "timer_fire", "timer_cancel", "kick", "link_busy",
        "link_idle", "mark", "emit")]
    targets.append((LabelledTracer, "emit", "obs"))
    targets += [(Counter, "inc", "obs"), (Gauge, "set", "obs"),
                (Gauge, "inc", "obs"), (Gauge, "dec", "obs"),
                (Histogram, "observe", "obs"),
                (LogHistogram, "observe", "obs")]
    return targets


# ----------------------------------------------------------------------
# Span timers
# ----------------------------------------------------------------------
#: Call-site shapes, calibrated separately because their bookkeeping
#: differs: a wrapped method, ``Simulator.schedule`` (which also wraps
#: the callback it is given), and a wrapped event callback.
FLAVOURS = METHOD, SCHEDULE, CALLBACK = range(3)

#: A wrapped function's parameter list, call arguments and defaults.
Shape = Tuple[str, str, tuple]

#: The shape of an event callback.
NO_ARGS: Shape = ("", "", ())

# Wrappers take exactly the wrapped function's parameters, not
# ``*args, **kwargs``: the interpreter then specializes the calls into
# and out of them as it does the unwrapped call.  Time is charged
# exclusively: at every span boundary the time since the last boundary
# goes to the span on top of the stack.
_SPAN = """\
def factory(_fn, _layer, _stack, _last, _clock, _self, _spans{defaults}):
    def wrapper({params}):
        _now = _clock()
        _self[_stack[-1]] += _now - _last[0]
        _stack.append(_layer)
        _last[0] = _now
        try:
            return _fn({args})
        finally:
            _now = _clock()
            _self[_stack.pop()] += _now - _last[0]
            _last[0] = _now
            _spans[_layer] += 1
    return wrapper
"""

# A probe charges its self time to a key naming the span it wraps and
# the span it was opened under: ``_keys[parent]``.  A call made from
# inside its own layer is not timed at all (``_raw`` is the unwrapped
# function): its time belongs to that layer either way, so only calls
# across a layer boundary pay for a span.
_PROBE = """\
def factory(_fn, _raw, _layer, _keys, _stack, _last, _clock, _self{defaults}):
    def wrapper({params}):
        _parent = _stack[-1]
        if _parent == _layer:
            return _raw({args})
        _now = _clock()
        _self[_parent] += _now - _last[0]
        _stack.append(_keys[_parent])
        _last[0] = _now
        try:
            return _fn({args})
        finally:
            _now = _clock()
            _self[_stack.pop()] += _now - _last[0]
            _last[0] = _now
    return wrapper
"""


def _shape(fn: Callable) -> Shape:
    """``fn``'s parameters, as a wrapper's parameter list and as the
    arguments it passes on."""
    params: List[str] = []
    args: List[str] = []
    defaults: list = []
    positional_only = 0
    starred = False
    for parameter in inspect.signature(fn).parameters.values():
        name = parameter.name
        if name.startswith("_"):
            raise ValueError(f"cannot wrap {fn!r}: parameter {name!r} "
                             "could clash with the wrapper's names")
        text = name
        if parameter.default is not parameter.empty:
            text += f"=_d{len(defaults)}"
            defaults.append(parameter.default)
        kind = parameter.kind
        if kind is parameter.VAR_POSITIONAL:
            params.append(f"*{name}")
            args.append(f"*{name}")
            starred = True
        elif kind is parameter.VAR_KEYWORD:
            params.append(f"**{name}")
            args.append(f"**{name}")
        elif kind is parameter.KEYWORD_ONLY:
            if not starred:
                params.append("*")
                starred = True
            params.append(text)
            args.append(f"{name}={name}")
        else:
            positional_only += kind is parameter.POSITIONAL_ONLY
            params.append(text)
            args.append(name)
    if positional_only:
        params.insert(positional_only, "/")
    return ", ".join(params), ", ".join(args), tuple(defaults)


class SpanLadder:
    """Self time per layer from span timers around each layer's calls.

    A span charges its duration, minus its child spans' durations, to
    its own layer.  Each span also inflates what it measures: part of
    its cost falls inside its own interval, the rest in its parent's.
    A span costs more inside a run than around a no-op in a loop, so
    the cost is measured where it is paid: every span sits inside a
    *probe* span of the same shape, and the probe's self time is what
    one span costs at that call site.
    :meth:`calibrate` measures, on wrapped no-ops, which share of that
    cost falls inside the span; :meth:`corrected_ns` subtracts both
    parts.
    """

    #: Stack entry below every span: time outside all spans.
    OUTSIDE = "outside"

    def __init__(self) -> None:
        names = LAYERS + (OTHER,)
        parents = names + (self.OUTSIDE,)
        #: _probe_keys[flavour][layer][parent]: where a probe charges.
        self._probe_keys = [
            {layer: {parent: (flavour, layer, parent)
                     for parent in parents} for layer in names}
            for flavour in FLAVOURS]
        #: Exclusive time per layer, and per probe key.
        self.self_ns: Dict[object, int] = dict.fromkeys(parents, 0)
        for keys in self._probe_keys:
            for by_parent in keys.values():
                self.self_ns.update(dict.fromkeys(by_parent.values(), 0))
        #: Spans recorded per layer.
        self.spans: Dict[str, int] = dict.fromkeys(names, 0)
        #: Share of a span's cost inside its own interval, per flavour.
        self.inner_share = [0.5 for _ in FLAVOURS]
        self._stack: List[object] = [self.OUTSIDE]
        self._last = [0]
        #: Layer and wrapper factories per event-callback code object.
        self._callbacks: Dict[object, tuple] = {}

    # -- wrappers ------------------------------------------------------
    @staticmethod
    def _factories_for(shape: Shape) -> Tuple[Callable, Callable]:
        """Freshly compiled span and probe factories for ``shape``.

        Every wrapped function gets wrappers of its own code: the call
        each wrapper makes then always reaches the same function, so the
        interpreter's specialization of that call holds, where wrappers
        sharing one code object would keep undoing it.
        """
        params, args, defaults = shape
        names = "".join(f", _d{index}" for index in range(len(defaults)))
        compiled = []
        for source in (_SPAN, _PROBE):
            namespace: dict = {}
            exec(source.format(defaults=names, params=params, args=args),
                 namespace)
            compiled.append(namespace["factory"])
        return compiled[0], compiled[1]

    def _timed(self, layer: str, fn: Callable, flavour: int,
               factories: Optional[Tuple[Callable, Callable]] = None,
               shape: Optional[Shape] = None) -> Callable:
        """``fn`` inside a span of ``layer`` inside a probe."""
        if shape is None:
            shape = _shape(fn)
        if factories is None:
            factories = self._factories_for(shape)
        span_factory, probe_factory = factories
        defaults = shape[2]
        span = span_factory(fn, layer, self._stack, self._last, _clock,
                            self.self_ns, self.spans, *defaults)
        return probe_factory(span, fn, layer,
                             self._probe_keys[flavour][layer], self._stack,
                             self._last, _clock, self.self_ns, *defaults)

    def _timed_callback(self, callback: Callable) -> Callable:
        """An event callback inside a span named after its module.

        Callbacks are wrapped on every ``schedule``, so their factories
        are compiled once per function, not per callback."""
        code = getattr(getattr(callback, "__func__", callback),
                       "__code__", None)
        entry = self._callbacks.get(code)
        if entry is None:
            layer = layer_of(getattr(callback, "__module__", None))
            entry = (layer, self._factories_for(NO_ARGS))
            if code is not None:
                self._callbacks[code] = entry
        layer, factories = entry
        return self._timed(layer, callback, CALLBACK, factories, NO_ARGS)

    def _wrap_schedule(self, original: Callable) -> Callable:
        timed_callback = self._timed_callback
        span_factory, _ = self._factories_for(_shape(original))
        span = span_factory(original, "sim.events", self._stack,
                            self._last, _clock, self.self_ns, self.spans)

        def schedule(sim, time, callback):
            return span(sim, time, timed_callback(callback))

        _, probe_factory = self._factories_for(_shape(schedule))
        return functools.update_wrapper(probe_factory(
            schedule, schedule, "sim.events",
            self._probe_keys[SCHEDULE]["sim.events"], self._stack,
            self._last, _clock, self.self_ns), original)

    def install(self, patches: Patches) -> None:
        """Wrap every layer boundary (see :func:`span_targets`)."""
        from repro.sim.events import Simulator
        for cls, name, layer in span_targets():
            patches.replace(cls, name,
                            lambda fn, layer=layer: functools.update_wrapper(
                                self._timed(layer, fn, METHOD), fn))
        patches.replace(Simulator, "schedule", self._wrap_schedule)

    # -- results -------------------------------------------------------
    def probe_ns(self, flavour: int, layer: str) -> int:
        """Probe time of ``flavour`` spans in ``layer``."""
        return sum(self.self_ns[key]
                   for key in self._probe_keys[flavour][layer].values())

    def calibrate(self, calls: int = 5_000, repeats: int = 5) -> None:
        """Measure, per flavour, the share of a span's cost that falls
        inside its own interval.

        ``calls`` no-op method calls shaped like the flavour's call
        sites run through spans; the no-ops' self time over their
        probes' time is the share.  Median over ``repeats`` rounds.
        """
        for flavour in FLAVOURS:
            shares: List[float] = []
            for _ in range(repeats):
                probe = SpanLadder()
                _probe_loop(flavour, calls, probe)()
                layer = "sim.events" if flavour == SCHEDULE else "core"
                shares.append(probe.self_ns[layer]
                              / probe.probe_ns(flavour, layer))
            shares.sort()
            self.inner_share[flavour] = shares[len(shares) // 2]

    def corrected_ns(self) -> Dict[str, float]:
        """Self time per layer with every span's own cost removed."""
        corrected = {layer: float(self.self_ns[layer])
                     for layer in self.spans}
        for flavour, share in enumerate(self.inner_share):
            for (_, layer, parent) in (
                    key for by_parent in self._probe_keys[flavour].values()
                    for key in by_parent.values()):
                cost = self.self_ns[(flavour, layer, parent)]
                corrected[layer] -= share * cost
                if parent != self.OUTSIDE:
                    corrected[parent] -= (1 - share) * cost
        return corrected


class _Probe:
    """No-op stand-ins for the three kinds of call site spans wrap."""

    def op(self, first, second):
        return None

    def schedule(self, time, callback):
        return None

    def fire(self):
        return None


def _probe_loop(flavour: int, calls: int, spans: SpanLadder) -> Callable:
    """``calls`` no-op calls shaped like ``flavour``'s call sites, made
    through spans of ``spans``."""
    probe_class = type("Probe", (_Probe,), {})
    probe = probe_class()
    if flavour == METHOD:
        probe_class.op = spans._timed("core", _Probe.op, METHOD)

        def loop():
            for _ in range(calls):
                probe.op(1, 2)
    elif flavour == SCHEDULE:
        probe_class.schedule = spans._wrap_schedule(_Probe.schedule)
        fire = probe.fire

        def loop():
            for _ in range(calls):
                probe.schedule(0.0, fire)
    else:
        fire = spans._timed("core", probe.fire, CALLBACK)

        def loop():
            for _ in range(calls):
                fire()
    return loop


# ----------------------------------------------------------------------
# Exact call counts
# ----------------------------------------------------------------------
class CallCounter:
    """Counts Python calls per code object while :meth:`start`ed."""

    def __init__(self) -> None:
        self.calls: Dict[object, int] = {}

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            calls = self.calls
            calls[code] = calls.get(code, 0) + 1

    def start(self) -> None:
        sys.setprofile(self._profile)

    def stop(self) -> None:
        sys.setprofile(None)

    def by_layer(self, src_root: str) -> Dict[str, int]:
        """Calls per layer, by the module that defines each frame."""
        modules: Dict[str, str] = {}
        totals = dict.fromkeys(LAYERS + (OTHER,), 0)
        for code, count in self.calls.items():
            filename = code.co_filename
            layer = modules.get(filename)
            if layer is None:
                layer = modules[filename] = layer_of(
                    _module_of(filename, src_root))
            totals[layer] += count
        return totals

    def of(self, functions) -> int:
        """Calls of the given functions (by their code objects)."""
        codes = {function.__code__ for function in functions}
        return sum(self.calls.get(code, 0) for code in codes)

    def named(self, name: str, package_dir: str) -> int:
        """Calls of any function called ``name`` defined under
        ``package_dir``."""
        return sum(count for code, count in self.calls.items()
                   if code.co_name == name
                   and code.co_filename.startswith(package_dir))


def _module_of(filename: str, src_root: str) -> Optional[str]:
    relative = os.path.relpath(filename, src_root)
    if relative.startswith("..") or not relative.endswith(".py"):
        return None
    module = relative[:-3].replace(os.sep, ".")
    return module[:-len(".__init__")] if module.endswith(
        ".__init__") else module
