"""Shared scenario builders for the test suite.

One home for the simulation harnesses the suite kept re-growing in
place: the flat backlogged-source rig (``FlatRun``, formerly
``tests/sched/helpers.py``), the mixed Poisson workload
(``run_workload``, formerly private to the integration properties),
the drain A/B pieces (``shared_clock_simulator``, ``Observers``), and
thin wrappers over :mod:`repro.conformance.scenarios` so
conformance-style workloads are available to any test without copying
arrival-generation code.
"""

from __future__ import annotations

import io
import random
from typing import Dict, Optional

from repro.conformance.runner import ConformanceRun, run_scenario
from repro.conformance.scenarios import Scenario, make_scenario
from repro.obs import MetricsRegistry, Tracer
from repro.sched.framework import PieoScheduler
from repro.sim.engine import TransmitEngine
from repro.sim.events import Simulator
from repro.sim.flow import FlowQueue
from repro.sim.generators import BackloggedSource, PoissonGenerator
from repro.sim.link import Link, gbps
from repro.sim.packet import MTU_BYTES


class FlatRun:
    """A flat scheduler + engine + backlogged sources, ready to run."""

    def __init__(self, algorithm, link_gbps: float = 10.0,
                 ordered_list=None, trigger=None) -> None:
        self.sim = Simulator()
        self.link = Link(gbps(link_gbps))
        kwargs = {"link_rate_bps": self.link.rate_bps}
        if ordered_list is not None:
            kwargs["ordered_list"] = ordered_list
        if trigger is not None:
            kwargs["trigger"] = trigger
        self.scheduler = PieoScheduler(algorithm, **kwargs)
        self.engine = TransmitEngine(self.sim, self.scheduler, self.link)
        self.sources: Dict[str, BackloggedSource] = {}

    def add_backlogged_flow(self, flow: FlowQueue, depth: int = 2,
                            size_bytes: int = MTU_BYTES,
                            start: float = 0.0,
                            end_time: float = float("inf")) -> FlowQueue:
        self.scheduler.add_flow(flow)
        source = BackloggedSource(self.sim, flow.flow_id,
                                  self.engine.arrival_sink, depth=depth,
                                  size_bytes=size_bytes, end_time=end_time)
        self.engine.add_departure_listener(flow.flow_id,
                                           source.on_departure)
        source.start(start)
        self.sources[flow.flow_id] = source
        return flow

    def run(self, duration: float) -> "FlatRun":
        self.sim.run_until(duration)
        return self

    def rates(self, start: float, end: Optional[float] = None,
              in_gbps: bool = False) -> Dict:
        measured = self.engine.recorder.rate_bps(start=start, end=end)
        if in_gbps:
            return {key: value / 1e9 for key, value in measured.items()}
        return measured


def run_workload(algorithm_factory, list_factory=None, duration=0.01,
                 seed=21):
    """Six mixed-size Poisson flows on a 5 Gbps link (the integration
    properties' workload).  Returns ``(sim, scheduler, engine)``."""
    sim = Simulator()
    link = Link(gbps(5))
    ordered_list = list_factory() if list_factory else None
    scheduler = PieoScheduler(algorithm_factory(),
                              ordered_list=ordered_list,
                              link_rate_bps=link.rate_bps)
    engine = TransmitEngine(sim, scheduler, link)
    rng = random.Random(seed)
    for index in range(6):
        flow = FlowQueue(f"f{index}", weight=1 + index % 3,
                         rate_bps=gbps(0.2 + 0.2 * index),
                         priority=index % 4)
        scheduler.add_flow(flow)
        PoissonGenerator(sim, flow.flow_id, engine.arrival_sink,
                         rate_bps=gbps(0.5),
                         size_bytes=rng.choice([300, 700, 1500]),
                         rng=random.Random(seed * 31 + index),
                         end_time=duration * 0.8).start(0.0)
    sim.run_until(duration)
    return sim, scheduler, engine


def shared_clock_simulator() -> Simulator:
    """A simulator with one clock consumer already registered.

    Every engine built on it shares the clock, so ``advance_to`` is
    never asked and the engine takes the event-driven loop (kick,
    listener and retry-timer events) throughout: the reference a
    drained run must match."""
    sim = Simulator()
    sim.register_clock_consumer()
    return sim


class Observers:
    """A streaming tracer and a metrics registry for one run."""

    def __init__(self) -> None:
        self.sink = io.StringIO()
        self.tracer = Tracer(capacity=0, sink=self.sink)
        self.metrics = MetricsRegistry()

    def outputs(self):
        """The JSONL trace text and the metrics snapshot, without the
        ``engine.schedule_us`` histograms, which time the host."""
        snapshot = self.metrics.to_dict()
        snapshot["histograms"] = {
            name: histogram
            for name, histogram in snapshot["histograms"].items()
            if not name.endswith("engine.schedule_us")}
        return self.sink.getvalue(), snapshot


def conformance_scenario(name: str, seed: int = 0,
                         **kwargs) -> Scenario:
    """A registered conformance scenario (pure-data workload)."""
    return make_scenario(name, seed=seed, **kwargs)


def conformance_run(algorithm_name: str, scenario_name: str = None,
                    seed: int = 0, **kwargs) -> ConformanceRun:
    """Run one algorithm against a conformance scenario and return the
    traced, analyzed run (``kwargs`` pass through to
    :func:`repro.conformance.runner.run_scenario`)."""
    from repro.sched.registry import get_spec
    name = scenario_name or get_spec(algorithm_name).scenario
    scenario = make_scenario(name, seed=seed)
    return run_scenario(scenario, algorithm_name, **kwargs)
