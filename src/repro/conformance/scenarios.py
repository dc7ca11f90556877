"""Deterministic conformance scenarios: pure-data workloads.

A :class:`Scenario` is a fully materialized workload — flow parameters
plus a precomputed ``(time, flow_id, size_bytes)`` arrival list — so
the metamorphic transforms in :mod:`repro.conformance.metamorphic` can
rewrite it as plain data (scale times, permute flow ids) with no
generator state to re-seed.  Arrival sequences are produced once from
a seeded :class:`random.Random`, mirroring the distributions of
:mod:`repro.sim.generators` without coupling the transforms to
generator objects.

Builders (registered in ``SCENARIOS``):

``backlogged``
    Mixed-size CBR overload (2x link rate) across 6 weighted flows for
    the fairness/GPS checks, with an arrival cutoff at 60% of the run
    so the drain exercises work conservation on the way down.
``poisson``
    Moderate-load (0.7) Poisson mix: idle gaps make the
    work-conservation checker bite for the rank-by-state algorithms.
``priority``
    Four flows at distinct priorities under 0.9 load for the
    inversion detector.
``shaped``
    Per-flow token rates at an aggregate half the link with bursty
    arrivals: legal idling plus real shaping delays (token bucket /
    RCSP).
``slotted``
    One flow per TDMA slot, about one packet per frame.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Slot plan matching the registry's TDMA default (100us slots, 8-slot
#: frame); carried on the scenario so metamorphic time scaling can
#: rescale the algorithm consistently with the workload.
DEFAULT_SLOT_PLAN: Tuple[float, int] = (100e-6, 8)


@dataclass(frozen=True)
class FlowSpec:
    """Static parameters of one scenario flow (mirrors
    :class:`repro.sim.flow.FlowQueue` construction arguments)."""

    flow_id: str
    weight: float = 1.0
    rate_bps: float = 0.0
    priority: int = 0
    group: int = 0
    burst_bytes: Optional[float] = None


@dataclass(frozen=True)
class Scenario:
    """One fully materialized conformance workload."""

    name: str
    link_rate_bps: float
    duration: float
    flows: Tuple[FlowSpec, ...]
    #: ``(time, flow_id, size_bytes)`` sorted by time.
    arrivals: Tuple[Tuple[float, str, int], ...]
    #: ``(slot_seconds, frame_slots)`` for slotted runs, else None.
    slot_plan: Optional[Tuple[float, int]] = None
    description: str = ""


_SIZES = (500, 1000, 1500)


def _finish(name: str, link_rate_bps: float, duration: float,
            flows: List[FlowSpec],
            per_flow: Dict[str, List[Tuple[float, int]]],
            slot_plan: Optional[Tuple[float, int]] = None,
            description: str = "") -> Scenario:
    """Merge per-flow ``(time, size)`` lists into one sorted arrival
    sequence (ties broken by flow order, deterministically)."""
    merged: List[Tuple[float, int, str, int]] = []
    for order, flow in enumerate(flows):
        for time, size in per_flow.get(flow.flow_id, []):
            merged.append((time, order, flow.flow_id, size))
    merged.sort(key=lambda item: (item[0], item[1]))
    arrivals = tuple((time, flow_id, size)
                     for time, _, flow_id, size in merged)
    return Scenario(name=name, link_rate_bps=link_rate_bps,
                    duration=duration, flows=tuple(flows),
                    arrivals=arrivals, slot_plan=slot_plan,
                    description=description)


def _normalized_weights(flow_count: int) -> List[float]:
    """Weights in ratio 1:2:3, normalized so they sum to 1.  WF2Q+
    (and the delay bounds of the WFQ family generally) assume admission
    control: weights are *fractions of the link rate* summing to at
    most one — virtual time advances at wall-clock rate, so
    oversubscribed weights would outrun the tag frontier and void the
    bounds.  Scale-invariant algorithms (WFQ's SCFQ clock, DRR's
    weighted quantum) are unaffected by the normalization."""
    raw = [float(1 + index % 3) for index in range(flow_count)]
    total = sum(raw)
    return [value / total for value in raw]


def backlogged_scenario(seed: int = 0, flow_count: int = 6,
                        link_rate_bps: float = 1e9,
                        duration: float = 4e-3) -> Scenario:
    rng = random.Random(seed)
    weights = _normalized_weights(flow_count)
    flows = [FlowSpec(flow_id=f"f{index}",
                      weight=weights[index],
                      rate_bps=link_rate_bps / (2 * flow_count),
                      priority=index % 4)
             for index in range(flow_count)]
    cutoff = 0.6 * duration
    per_flow: Dict[str, List[Tuple[float, int]]] = {}
    # Each flow offers 2R/F bits/s until the cutoff: joint overload for
    # the fairness window, then a drain for work conservation.
    offered = 2.0 * link_rate_bps / flow_count
    for flow in flows:
        t = 0.0
        sequence: List[Tuple[float, int]] = []
        while t < cutoff:
            size = _SIZES[rng.randrange(len(_SIZES))]
            sequence.append((t, size))
            t += size * 8.0 / offered
        per_flow[flow.flow_id] = sequence
    return _finish("backlogged", link_rate_bps, duration, flows,
                   per_flow,
                   description="2x CBR overload, 6 weighted flows, "
                               "arrivals stop at 60% of the run")


def poisson_scenario(seed: int = 0, flow_count: int = 6,
                     link_rate_bps: float = 1e9,
                     duration: float = 4e-3) -> Scenario:
    rng = random.Random(seed)
    weights = _normalized_weights(flow_count)
    flows = [FlowSpec(flow_id=f"f{index}",
                      weight=weights[index],
                      rate_bps=link_rate_bps / (2 * flow_count),
                      priority=index % 4)
             for index in range(flow_count)]
    per_flow: Dict[str, List[Tuple[float, int]]] = {}
    offered = 0.7 * link_rate_bps / flow_count
    for flow in flows:
        t = 0.0
        sequence: List[Tuple[float, int]] = []
        while True:
            size = _SIZES[rng.randrange(len(_SIZES))]
            mean_gap = size * 8.0 / offered
            t += rng.expovariate(1.0 / mean_gap)
            if t >= duration * 0.9:
                break
            sequence.append((t, size))
        per_flow[flow.flow_id] = sequence
    return _finish("poisson", link_rate_bps, duration, flows, per_flow,
                   description="0.7-load Poisson mix with idle gaps")


def priority_scenario(seed: int = 0, link_rate_bps: float = 1e9,
                      duration: float = 4e-3) -> Scenario:
    rng = random.Random(seed)
    flows = [FlowSpec(flow_id=f"f{index}", priority=index,
                      rate_bps=link_rate_bps / 8)
             for index in range(4)]
    per_flow: Dict[str, List[Tuple[float, int]]] = {}
    offered = 0.9 * link_rate_bps / len(flows)
    for flow in flows:
        t = 0.0
        sequence: List[Tuple[float, int]] = []
        while True:
            size = _SIZES[rng.randrange(len(_SIZES))]
            mean_gap = size * 8.0 / offered
            t += rng.expovariate(1.0 / mean_gap)
            if t >= duration * 0.9:
                break
            sequence.append((t, size))
        per_flow[flow.flow_id] = sequence
    return _finish("priority", link_rate_bps, duration, flows, per_flow,
                   description="4 distinct priorities at 0.9 load")


def shaped_scenario(seed: int = 0, link_rate_bps: float = 1e9,
                    duration: float = 8e-3) -> Scenario:
    rng = random.Random(seed)
    flows = [FlowSpec(flow_id=f"f{index}",
                      rate_bps=link_rate_bps / 8.0,
                      priority=index,
                      burst_bytes=3000.0 * (1 + index % 2))
             for index in range(4)]
    per_flow: Dict[str, List[Tuple[float, int]]] = {}
    for flow in flows:
        # Bursts of 4 packets arriving back-to-back at 60% of the
        # token rate on average: the bucket drains during each burst
        # (real shaping delays) and refills in the gaps (legal idling).
        sequence: List[Tuple[float, int]] = []
        t = 0.0
        burst_packets = 4
        while t < duration * 0.9:
            burst_bytes = 0
            for index in range(burst_packets):
                size = _SIZES[rng.randrange(len(_SIZES))]
                sequence.append((t + index * 1e-9, size))
                burst_bytes += size
            t += burst_bytes * 8.0 / (0.6 * flow.rate_bps)
        per_flow[flow.flow_id] = sequence
    return _finish("shaped", link_rate_bps, duration, flows, per_flow,
                   description="bursty arrivals against per-flow "
                               "token rates at half the link")


def slotted_scenario(seed: int = 0, link_rate_bps: float = 1e9,
                     duration: float = 8e-3) -> Scenario:
    rng = random.Random(seed)
    slot_seconds, frame_slots = DEFAULT_SLOT_PLAN
    frame = slot_seconds * frame_slots
    flows = [FlowSpec(flow_id=f"f{index}", group=index,
                      rate_bps=link_rate_bps / 8)
             for index in range(4)]
    per_flow: Dict[str, List[Tuple[float, int]]] = {}
    for order, flow in enumerate(flows):
        # Roughly one packet per frame with jitter; the first flow
        # slightly oversends so a small backlog forms and the
        # one-grant-per-frame rule is actually exercised.
        gap = frame * (0.8 if order == 0 else 1.1)
        t = rng.uniform(0, frame * 0.5)
        sequence: List[Tuple[float, int]] = []
        while t < duration * 0.9:
            sequence.append((t, 1500))
            t += gap * rng.uniform(0.9, 1.1)
        per_flow[flow.flow_id] = sequence
    return _finish("slotted", link_rate_bps, duration, flows, per_flow,
                   slot_plan=DEFAULT_SLOT_PLAN,
                   description="one flow per TDMA slot, about one "
                               "packet per frame")


SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "backlogged": backlogged_scenario,
    "poisson": poisson_scenario,
    "priority": priority_scenario,
    "shaped": shaped_scenario,
    "slotted": slotted_scenario,
}


def make_scenario(name: str, seed: int = 0, **kwargs) -> Scenario:
    """Build a registered scenario by name."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: "
            f"{', '.join(sorted(SCENARIOS))}") from None
    return builder(seed=seed, **kwargs)
