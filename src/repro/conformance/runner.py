"""Scenario execution + verdict assembly for conformance checks.

``run_scenario`` wires one :class:`~repro.conformance.scenarios.Scenario`
through the standard single-link stack (Simulator + Link +
PieoScheduler + TransmitEngine) with an in-memory
:class:`~repro.obs.trace.Tracer`, replays the precomputed arrival
sequence, and returns a :class:`~repro.conformance.checkers.ConformanceRun`
ready for the checker library.  ``check_algorithm`` then runs every
checker the algorithm's :class:`~repro.sched.spec.AlgorithmSpec` makes
applicable and folds waivers into a pass/fail verdict (the CLI's
``sweep`` runs it over the whole catalogue).

Violation *injection* (``inject=``) deliberately corrupts the trace
before checking — used by tests and CI to prove the harness actually
fails (a conformance suite that cannot fail verifies nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs.analyze import TraceAnalysis, _as_dicts
from repro.obs.trace import Tracer
from repro.sched.framework import PieoScheduler
from repro.sched.rcsp import RateJitterRegulator
from repro.sched.registry import get_algorithm
from repro.sched.spec import AlgorithmSpec
from repro.sched.tdma import TimeSlotted
from repro.sim.engine import TransmitEngine
from repro.sim.events import Simulator
from repro.sim.flow import FlowQueue
from repro.sim.link import Link
from repro.sim.packet import Packet, reset_packet_ids
from repro.conformance.checkers import (CHECKERS, ConformanceRun,
                                        Violation)
from repro.conformance.scenarios import Scenario, make_scenario

#: Supported trace corruptions for self-tests of the harness.
INJECTIONS = ("reorder", "early")


def run_scenario(scenario: Scenario, algorithm_name: str,
                 backend: Optional[str] = None) -> ConformanceRun:
    """Execute one scenario under one algorithm and trace it."""
    entry = get_algorithm(algorithm_name)
    spec = entry.spec
    if algorithm_name == "tdma" and scenario.slot_plan is not None:
        # The registry factory has a fixed slot plan; the scenario's
        # (possibly metamorphically rescaled) plan wins.
        algorithm = TimeSlotted(slot_seconds=scenario.slot_plan[0],
                                frame_slots=scenario.slot_plan[1])
    else:
        algorithm = entry.factory()

    reset_packet_ids(0)
    tracer = Tracer()
    sim = Simulator()
    link = Link(scenario.link_rate_bps, tracer=tracer)
    scheduler = PieoScheduler(algorithm,
                              link_rate_bps=scenario.link_rate_bps,
                              backend=backend, tracer=tracer)
    engine = TransmitEngine(sim, scheduler, link, tracer=tracer)

    flows: Dict[str, FlowQueue] = {}
    for flow_spec in scenario.flows:
        flow = FlowQueue(flow_spec.flow_id, weight=flow_spec.weight,
                         rate_bps=flow_spec.rate_bps,
                         priority=flow_spec.priority,
                         group=flow_spec.group)
        if flow_spec.burst_bytes is not None:
            flow.state["burst_bytes"] = flow_spec.burst_bytes
        scheduler.add_flow(flow)
        flows[flow_spec.flow_id] = flow

    regulator = RateJitterRegulator() if spec.regulated else None

    def deliver(flow_id: str, size_bytes: int) -> None:
        packet = Packet(flow_id, size_bytes=size_bytes)
        if regulator is not None:
            # RCSP's rate controller stamps eligibility at arrival,
            # before the static-priority stage sees the packet.
            packet.arrival_time = sim.now
            regulator.regulate(flows[flow_id], packet)
        engine.arrival_sink(flow_id, packet)

    for time, flow_id, size_bytes in scenario.arrivals:
        sim.schedule(time, lambda f=flow_id, s=size_bytes: deliver(f, s))

    sim.run_until(scenario.duration)

    analysis = TraceAnalysis(tracer.events)
    return ConformanceRun(analysis=analysis, spec=spec,
                          algorithm_name=algorithm_name,
                          algorithm=algorithm, scenario=scenario,
                          link_rate_bps=scenario.link_rate_bps,
                          recorder=engine.recorder)


def inject_violation(events: Sequence, kind: str) -> List[dict]:
    """Corrupt a healthy event stream so a checker must fire.

    ``reorder``
        Swap the packet ids of the first and last departures of the
        busiest flow -> a per-flow FIFO violation.
    ``early``
        Pull one departure's start a full serialization earlier ->
        link-overlap (the wire serializes two packets at once).
    """
    records = [dict(record) for record in _as_dicts(events)]
    departures: Dict[object, List[int]] = {}
    for index, record in enumerate(records):
        if record.get("kind") == "departure":
            departures.setdefault(record.get("flow_id"),
                                  []).append(index)
    if kind == "reorder":
        flow_id, indices = max(departures.items(),
                               key=lambda item: len(item[1]))
        if len(indices) < 2:
            raise ConfigurationError(
                "trace too small to inject a reorder")
        first, last = indices[0], indices[-1]
        (records[first]["packet_id"],
         records[last]["packet_id"]) = (records[last]["packet_id"],
                                        records[first]["packet_id"])
    elif kind == "early":
        indices = max(departures.values(), key=len)
        if len(indices) < 2:
            raise ConfigurationError(
                "trace too small to inject an early departure")
        target = records[indices[-1]]
        previous = records[indices[-2]]
        width = target["finish"] - target["t"]
        target["t"] = previous["t"] + 0.25 * width
        target["finish"] = target["t"] + width
    else:
        raise ConfigurationError(
            f"unknown injection {kind!r}; available: "
            f"{', '.join(INJECTIONS)}")
    return records


@dataclass
class CheckOutcome:
    """One checker's result for one run."""

    checker: str
    violations: List[Violation]
    waived: Optional[str] = None  # waiver text when spec waives it

    @property
    def passed(self) -> bool:
        return not self.violations or self.waived is not None


@dataclass
class ConformanceReport:
    """All applicable checker outcomes for one algorithm run."""

    algorithm: str
    scenario: str
    outcomes: List[CheckOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    @property
    def violations(self) -> List[Violation]:
        return [violation for outcome in self.outcomes
                for violation in outcome.violations]

    def verdicts(self) -> Dict[str, bool]:
        """checker -> held (ignoring waivers): the metamorphic harness
        compares these across transformed runs."""
        return {outcome.checker: not outcome.violations
                for outcome in self.outcomes}


def check_run(run: ConformanceRun) -> List[CheckOutcome]:
    """Run every checker the run's spec makes applicable."""
    outcomes = []
    for name in run.spec.checkers():
        outcomes.append(CheckOutcome(
            checker=name, violations=CHECKERS[name](run),
            waived=run.spec.is_waived(name)))
    return outcomes


def check_algorithm(algorithm_name: str,
                    scenario: Optional[Scenario] = None,
                    seed: int = 0,
                    backend: Optional[str] = None,
                    inject: Optional[str] = None) -> ConformanceReport:
    """Run one algorithm's conformance scenario and judge it."""
    entry = get_algorithm(algorithm_name)
    if scenario is None:
        scenario = make_scenario(entry.spec.scenario, seed=seed)
    run = run_scenario(scenario, algorithm_name, backend=backend)
    if inject is not None:
        corrupted = inject_violation(run.analysis.events, inject)
        run = ConformanceRun(analysis=TraceAnalysis(corrupted),
                             spec=run.spec,
                             algorithm_name=run.algorithm_name,
                             algorithm=run.algorithm,
                             scenario=run.scenario,
                             link_rate_bps=run.link_rate_bps,
                             recorder=run.recorder)
    return ConformanceReport(algorithm=algorithm_name,
                             scenario=scenario.name,
                             outcomes=check_run(run))


def check_trace(path: str) -> List[ConformanceReport]:
    """Trace-only conformance: the universal invariants per run.

    Without the scenario (weights, rates, priorities) only the
    trace-integrity checkers apply; algorithm-specific bounds need
    ``check_algorithm``.  Multi-switch (fabric) traces are audited per
    switch track — each hop must independently satisfy conservation,
    per-flow FIFO, and link non-overlap — with one report per
    ``(run, switch)``.
    """
    from repro.obs.analyze import split_runs, switch_analyses
    from repro.obs.trace import read_jsonl
    from repro.sched.spec import UNIVERSAL_CHECKERS
    reports = []
    for index, segment in enumerate(split_runs(read_jsonl(path))):
        for switch, analysis in switch_analyses(segment.events):
            run = ConformanceRun(analysis=analysis,
                                 spec=AlgorithmSpec())
            outcomes = [CheckOutcome(checker=name,
                                     violations=CHECKERS[name](run))
                        for name in UNIVERSAL_CHECKERS]
            title = (segment.title if switch is None
                     else f"{segment.title} [{switch}]")
            reports.append(ConformanceReport(
                algorithm=title, scenario=f"trace[{index}]",
                outcomes=outcomes))
    return reports
