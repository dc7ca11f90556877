"""Metamorphic transforms: semantics-preserving scenario rewrites.

A conformance verdict should be invariant under symmetries of the
scheduling model: stretching time (and slowing every rate to match),
scaling packet sizes (and every rate with them), renaming flows, and
translating the whole arrival sequence.  Likewise substituting the
ordered-list backend must not change a single departed byte.  Each
transform here rewrites a :class:`~repro.conformance.scenarios.Scenario`
as pure data; the harness re-runs the checkers and compares verdicts
checker-by-checker.

A verdict mismatch after a transform is itself a conformance failure:
either the algorithm breaks a symmetry it promised (e.g. a hidden
absolute-time constant) or a checker over-fits the base scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.conformance.runner import (ConformanceReport, check_run,
                                      check_algorithm, run_scenario)
from repro.conformance.scenarios import Scenario


def scale_time(scenario: Scenario, factor: float = 2.0) -> Scenario:
    """Stretch time by ``factor``; divide every rate by it.  Byte
    quantities (sizes, bursts, weights) are untouched, so the fluid
    trajectories are the same curves on a rescaled clock."""
    flows = tuple(replace(flow, rate_bps=flow.rate_bps / factor)
                  for flow in scenario.flows)
    arrivals = tuple((time * factor, flow_id, size)
                     for time, flow_id, size in scenario.arrivals)
    slot_plan = scenario.slot_plan
    if slot_plan is not None:
        slot_plan = (slot_plan[0] * factor, slot_plan[1])
    return replace(scenario, name=f"{scenario.name}*t{factor:g}",
                   link_rate_bps=scenario.link_rate_bps / factor,
                   duration=scenario.duration * factor,
                   flows=flows, arrivals=arrivals, slot_plan=slot_plan)


def scale_size(scenario: Scenario, factor: int = 2) -> Scenario:
    """Scale packet sizes and every rate by ``factor``; times are
    untouched (serialization intervals are preserved exactly)."""
    flows = tuple(replace(flow, rate_bps=flow.rate_bps * factor,
                          burst_bytes=(None if flow.burst_bytes is None
                                       else flow.burst_bytes * factor))
                  for flow in scenario.flows)
    arrivals = tuple((time, flow_id, size * factor)
                     for time, flow_id, size in scenario.arrivals)
    return replace(scenario, name=f"{scenario.name}*s{factor:g}",
                   link_rate_bps=scenario.link_rate_bps * factor,
                   flows=flows, arrivals=arrivals)


def permute_flows(scenario: Scenario, rotation: int = 1) -> Scenario:
    """Rename flow ids by a cyclic rotation.  Every per-flow attribute
    (weight, rate, priority, slot) travels with its arrivals, so the
    run is isomorphic up to labels."""
    ids = [flow.flow_id for flow in scenario.flows]
    renamed = {old: ids[(index + rotation) % len(ids)]
               for index, old in enumerate(ids)}
    flows = tuple(replace(flow, flow_id=renamed[flow.flow_id])
                  for flow in scenario.flows)
    arrivals = tuple((time, renamed[flow_id], size)
                     for time, flow_id, size in scenario.arrivals)
    return replace(scenario, name=f"{scenario.name}*perm{rotation}",
                   flows=flows, arrivals=arrivals)


def translate_time(scenario: Scenario,
                   offset: float = 1.3e-3) -> Scenario:
    """Shift every arrival by ``offset``.  Slot-grid algorithms stay
    legal because the grid is absolute; everything else is
    translation-invariant by construction."""
    arrivals = tuple((time + offset, flow_id, size)
                     for time, flow_id, size in scenario.arrivals)
    return replace(scenario, name=f"{scenario.name}+dt",
                   duration=scenario.duration + offset,
                   arrivals=arrivals)


TRANSFORMS: Dict[str, Callable[[Scenario], Scenario]] = {
    "time-scale": scale_time,
    "size-scale": scale_size,
    "flow-permutation": permute_flows,
    "time-translation": translate_time,
}


#: The backend substitutions of the metamorphic sweep: the Section 5
#: hardware design must depart every byte exactly as the oracle does.
SUBSTITUTIONS: Sequence[Dict[str, str]] = ({"backend": "hardware"},)


def apply_transform(name: str, scenario: Scenario) -> Scenario:
    return TRANSFORMS[name](scenario)


@dataclass
class MetamorphicResult:
    """Verdict comparison for one algorithm across all transforms."""

    algorithm: str
    base: ConformanceReport
    transformed: Dict[str, ConformanceReport] = \
        field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches


def metamorphic_verdicts(
        algorithm_name: str,
        scenario: Scenario,
        transforms: Optional[Sequence[str]] = None,
        substitutions: Optional[Sequence[Dict[str, str]]] = None,
) -> MetamorphicResult:
    """Run the base scenario, every transform, and every backend
    substitution; collect verdict mismatches.

    ``substitutions`` are ``run_scenario`` keyword dicts (e.g.
    ``{"backend": "hardware"}``); besides preserved verdicts these demand
    *byte-identical* departures, since backends promise exact
    semantics, not just bound-level equivalence.
    """
    base_run = run_scenario(scenario, algorithm_name)
    base_report = ConformanceReport(algorithm=algorithm_name,
                                    scenario=scenario.name,
                                    outcomes=check_run(base_run))
    result = MetamorphicResult(algorithm=algorithm_name,
                               base=base_report)
    base_verdicts = base_report.verdicts()

    for name in (transforms if transforms is not None
                 else sorted(TRANSFORMS)):
        report = check_algorithm(algorithm_name,
                                 scenario=apply_transform(name,
                                                          scenario))
        result.transformed[name] = report
        if report.verdicts() != base_verdicts:
            changed = {
                checker: (base_verdicts[checker], held)
                for checker, held in report.verdicts().items()
                if held != base_verdicts.get(checker)}
            result.mismatches.append(
                f"{name}: verdicts changed {changed}")

    base_departures = (base_run.recorder.departures
                       if base_run.recorder is not None else None)
    for kwargs in (substitutions or ()):
        label = ",".join(f"{key}={value}"
                         for key, value in sorted(kwargs.items()))
        run = run_scenario(scenario, algorithm_name, **kwargs)
        report = ConformanceReport(algorithm=algorithm_name,
                                   scenario=f"{scenario.name}[{label}]",
                                   outcomes=check_run(run))
        result.transformed[label] = report
        if report.verdicts() != base_verdicts:
            result.mismatches.append(f"{label}: verdicts changed")
        if (base_departures is not None and run.recorder is not None
                and run.recorder.departures != base_departures):
            result.mismatches.append(
                f"{label}: departures not byte-identical")
    return result
