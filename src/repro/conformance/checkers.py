"""Invariant checkers: one function per promised scheduling bound.

Every checker consumes a :class:`ConformanceRun` — a
:class:`~repro.obs.analyze.TraceAnalysis` over one traced run plus the
:class:`~repro.sched.spec.AlgorithmSpec` and (when the run came from a
conformance scenario) the scenario's flow parameters — and returns a
list of structured :class:`Violation` records.  An empty list means the
invariant held.

The checkers deliberately reuse the analyzer's timeline reconstruction
(episodes, packet timelines, audits) instead of re-parsing events: one
reconstruction, many judgments.

Checker registry (``CHECKERS``):

``conservation`` / ``per-flow-fifo`` / ``link-overlap``
    Universal trace-integrity invariants, delegated to the analyzer's
    audits.
``work-conservation`` / ``idle-legality``
    The link never idles while an *eligible* element is resident.  For
    work-conserving algorithms every resident element is eligible, so
    the same interval computation serves both names.
``no-early-release``
    Wall-clock ``send_time`` gating is never violated: no element is
    dequeued before its send time.
``gps-delay-bound``
    Every delivered packet finishes within
    ``slack * L_max/R`` of its GPS fluid finish time.
``fairness-envelope``
    Normalized service of continuously backlogged flows (or SFQ
    buckets) stays within an envelope of the fair share.
``priority-inversion``
    No departure of a lower-priority flow starts while a
    higher-priority flow holds an eligible resident element.
``token-bucket-conformance``
    Per-flow departures never overdraw the reconstructed bucket.
``tdma-slots``
    Grants align to the slot grid, in the flow's own slot, at most one
    per frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Hashable, List, Optional,
                    Tuple)

from repro.obs.analyze import TraceAnalysis
from repro.sched.base import SchedulingAlgorithm, TimeBase
from repro.sched.spec import AlgorithmSpec
from repro.sched.tdma import TimeSlotted
from repro.conformance.oracle import (gps_finish_times,
                                      token_bucket_violations)
from repro.conformance.scenarios import Scenario

#: Absolute slop (seconds) below which an idle gap / early release is
#: attributed to float rounding rather than a scheduling bug.
TIME_TOLERANCE = 1e-9


@dataclass
class Violation:
    """One structured invariant violation."""

    checker: str
    message: str
    flow_id: Optional[Hashable] = None
    time: Optional[float] = None
    details: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        where = f" flow={self.flow_id!r}" if self.flow_id is not None \
            else ""
        when = f" t={self.time:.9f}" if self.time is not None else ""
        return f"[{self.checker}]{where}{when}: {self.message}"


@dataclass
class ConformanceRun:
    """Everything a checker may consult about one traced run."""

    analysis: TraceAnalysis
    spec: AlgorithmSpec
    algorithm_name: Optional[str] = None
    algorithm: Optional[SchedulingAlgorithm] = None
    scenario: Optional[Scenario] = None
    link_rate_bps: Optional[float] = None
    #: The engine's Recorder (byte-identity comparisons across
    #: backend substitutions); absent for trace-only runs.
    recorder: Optional[Any] = None

    # ------------------------------------------------------------------
    # Shared derived views
    # ------------------------------------------------------------------
    @property
    def wall_eligibility(self) -> bool:
        """Whether episode ``send_time`` values are wall-clock times
        (comparable with trace timestamps).  Virtual-base algorithms
        (WF2Q+) store virtual starts there."""
        if self.algorithm is not None:
            return self.algorithm.time_base is TimeBase.WALL
        return not self.spec.work_conserving or self.spec.shaped

    def horizon(self) -> float:
        """Last instant the trace can testify about."""
        t_max = self.analysis.t_max or 0.0
        busy = self.busy_intervals()
        return max(t_max, busy[-1][1]) if busy else t_max

    def busy_intervals(self) -> List[Tuple[float, float]]:
        """Merged link-busy intervals from departure windows."""
        return _merge([
            (timeline.depart_start, timeline.depart_end)
            for timeline in self.analysis.timelines
            if timeline.delivered and timeline.depart_start is not None])

    def eligible_from(self, enqueue_t: float,
                      send_time: Optional[float]) -> float:
        """The wall instant an episode's element became eligible."""
        if self.wall_eligibility and isinstance(send_time, (int, float)):
            return max(enqueue_t, send_time)
        return enqueue_t

    def flow_priorities(self) -> Dict[Hashable, int]:
        if self.scenario is None:
            return {}
        return {flow.flow_id: flow.priority
                for flow in self.scenario.flows}

    def max_packet_bytes(self) -> int:
        sizes = [timeline.size_bytes
                 for timeline in self.analysis.timelines
                 if timeline.size_bytes]
        return max(sizes) if sizes else 0


def _subtract(window: Tuple[float, float],
              intervals: List[Tuple[float, float]],
              ) -> List[Tuple[float, float]]:
    """``window`` minus a sorted, merged interval list."""
    lo, hi = window
    gaps: List[Tuple[float, float]] = []
    cursor = lo
    for start, end in intervals:
        if end <= cursor:
            continue
        if start >= hi:
            break
        if start > cursor:
            gaps.append((cursor, min(start, hi)))
        cursor = max(cursor, end)
        if cursor >= hi:
            break
    if cursor < hi:
        gaps.append((cursor, hi))
    return gaps


def _merge(intervals: List[Tuple[float, float]],
           ) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1] + TIME_TOLERANCE:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


# ----------------------------------------------------------------------
# Universal trace-integrity checkers (delegating to analyzer audits)
# ----------------------------------------------------------------------
def check_conservation(run: ConformanceRun) -> List[Violation]:
    issues = list(run.analysis.issues)
    issues += run.analysis.audit_conservation()
    return [Violation("conservation", issue.message)
            for issue in issues if issue.severity == "error"]


def check_per_flow_fifo(run: ConformanceRun) -> List[Violation]:
    return [Violation("per-flow-fifo", issue.message)
            for issue in run.analysis.audit_flow_ordering()
            if issue.severity == "error"]


def check_link_overlap(run: ConformanceRun) -> List[Violation]:
    return [Violation("link-overlap", issue.message)
            for issue in run.analysis.audit_link_overlap()
            if issue.severity == "error"]


# ----------------------------------------------------------------------
# Work conservation / idle legality
# ----------------------------------------------------------------------
def check_idle_while_eligible(run: ConformanceRun) -> List[Violation]:
    """The link must never idle while an eligible element is resident.

    For work-conserving algorithms every resident element is eligible
    (``send_time`` is the always-true predicate), so this is exactly
    work conservation; for shapers/TDMA the eligibility start is the
    element's wall-clock ``send_time``, making legal idling (everyone
    ineligible) pass and illegal idling (an eligible packet waiting on
    an idle link) fail.
    """
    checker = ("work-conservation" if run.spec.work_conserving
               else "idle-legality")
    horizon = run.horizon()
    eligible: List[Tuple[float, float]] = []
    episodes = list(run.analysis.episodes)
    episodes += list(run.analysis.open_episodes.values())
    for episode in episodes:
        start = run.eligible_from(episode.enqueue_t, episode.send_time)
        end = (episode.dequeue_t if episode.dequeue_t is not None
               else horizon)
        if end > start:
            eligible.append((min(start, horizon), min(end, horizon)))
    busy = run.busy_intervals()
    violations: List[Violation] = []
    for window in _merge(eligible):
        for gap_start, gap_end in _subtract(window, busy):
            if gap_end - gap_start > TIME_TOLERANCE:
                violations.append(Violation(
                    checker,
                    f"link idle for {gap_end - gap_start:.3e}s "
                    f"starting at t={gap_start:.9f} while an eligible "
                    "element was resident",
                    time=gap_start,
                    details={"idle_seconds": gap_end - gap_start}))
    return violations


# ----------------------------------------------------------------------
# Shaping: no early release
# ----------------------------------------------------------------------
def check_no_early_release(run: ConformanceRun) -> List[Violation]:
    if not run.wall_eligibility:
        return []
    violations: List[Violation] = []
    for episode in run.analysis.episodes:
        send_time = episode.send_time
        if not isinstance(send_time, (int, float)):
            continue
        if episode.dequeue_t < send_time - TIME_TOLERANCE:
            violations.append(Violation(
                "no-early-release",
                f"dequeued {send_time - episode.dequeue_t:.3e}s before "
                f"send_time={send_time:.9f}",
                flow_id=episode.flow_id, time=episode.dequeue_t,
                details={"send_time": send_time,
                         "dequeue_t": episode.dequeue_t}))
    return violations


# ----------------------------------------------------------------------
# GPS-relative delay bound (WFQ family)
# ----------------------------------------------------------------------
def check_gps_delay_bound(run: ConformanceRun) -> List[Violation]:
    if (run.spec.gps_delay_slack is None or run.scenario is None
            or run.link_rate_bps is None):
        return []
    weights = {flow.flow_id: flow.weight
               for flow in run.scenario.flows}
    ordered = [timeline for timeline in run.analysis.timelines
               if timeline.arrival_t is not None]
    ordered.sort(key=lambda timeline: timeline.arrival_t)
    arrivals = [(timeline.arrival_t, timeline.flow_id,
                 timeline.size_bytes) for timeline in ordered]
    if not arrivals:
        return []
    gps = gps_finish_times(arrivals, weights, run.link_rate_bps)
    l_max = run.max_packet_bytes()
    unit = l_max * 8.0 / run.link_rate_bps  # one L_max at line rate
    slack = run.spec.gps_delay_slack * unit
    violations: List[Violation] = []
    for timeline, ideal in zip(ordered, gps.finish_times):
        if not timeline.delivered:
            continue
        excess = timeline.depart_end - ideal - slack
        if excess > TIME_TOLERANCE:
            violations.append(Violation(
                "gps-delay-bound",
                f"packet {timeline.packet_id} finished "
                f"{timeline.depart_end - ideal:.3e}s after its GPS "
                f"fluid finish (allowed "
                f"{run.spec.gps_delay_slack:g} * L_max/R = "
                f"{slack:.3e}s)",
                flow_id=timeline.flow_id, time=timeline.depart_end,
                details={"gps_finish": ideal,
                         "excess_seconds": excess,
                         "excess_lmax": ((timeline.depart_end - ideal)
                                         / unit if unit else math.inf)}))
    return violations


# ----------------------------------------------------------------------
# Fairness envelope (DRR / WFQ family / SFQ buckets)
# ----------------------------------------------------------------------
def _intersect_two(first: List[Tuple[float, float]],
                   second: List[Tuple[float, float]],
                   ) -> List[Tuple[float, float]]:
    result = []
    i = j = 0
    while i < len(first) and j < len(second):
        lo = max(first[i][0], second[j][0])
        hi = min(first[i][1], second[j][1])
        if hi > lo:
            result.append((lo, hi))
        if first[i][1] < second[j][1]:
            i += 1
        else:
            j += 1
    return result


def check_fairness_envelope(run: ConformanceRun) -> List[Violation]:
    if (run.spec.fairness_envelope_mtu is None or run.scenario is None):
        return []
    # Group flows: per-flow (weighted) by default; per hash bucket for
    # SFQ, whose promise is equal service per *bucket*, not per flow.
    bucket_of = getattr(run.algorithm, "bucket_of", None)
    group_of: Dict[Hashable, Hashable] = {}
    group_weight: Dict[Hashable, float] = {}
    for flow in run.scenario.flows:
        group = (bucket_of(flow.flow_id) if bucket_of is not None
                 else flow.flow_id)
        group_of[flow.flow_id] = group
        group_weight[group] = (1.0 if bucket_of is not None
                               else flow.weight)
    arrivals: Dict[Hashable, List[float]] = {g: [] for g in group_weight}
    departures: Dict[Hashable, List[float]] = \
        {g: [] for g in group_weight}
    served: List[Tuple[float, Hashable, int]] = []
    for timeline in run.analysis.timelines:
        group = group_of.get(timeline.flow_id)
        if group is None:
            continue
        if timeline.arrival_t is not None:
            arrivals[group].append(timeline.arrival_t)
        if timeline.delivered:
            departures[group].append(timeline.depart_start)
            served.append((timeline.depart_start, group,
                           timeline.size_bytes))
    horizon = run.horizon()
    common: Optional[List[Tuple[float, float]]] = None
    for group in group_weight:
        intervals = TraceAnalysis._backlogged_intervals(
            sorted(arrivals[group]), sorted(departures[group]), horizon)
        common = (intervals if common is None
                  else _intersect_two(common, intervals))
        if not common:
            return []  # never jointly backlogged -> not applicable
    window = max(common, key=lambda pair: pair[1] - pair[0])
    l_max = run.max_packet_bytes()
    if run.link_rate_bps:
        min_span = 20 * l_max * 8.0 / run.link_rate_bps
        if window[1] - window[0] < min_span:
            return []  # window too short to judge fairness
    start, end = window
    by_packets = run.spec.fairness_unit == "packets"
    normalized: Dict[Hashable, float] = {g: 0.0 for g in group_weight}
    for depart_start, group, size_bytes in served:
        if start <= depart_start < end:
            quantum = 1 if by_packets else size_bytes
            normalized[group] += quantum / group_weight[group]
    spread = max(normalized.values()) - min(normalized.values())
    min_weight = min(group_weight.values())
    # Envelope units follow the fairness unit: max-size packets for
    # byte-level promises, packet count for per-visit round robin.
    per_unit = 1 if by_packets else l_max
    envelope = run.spec.fairness_envelope_mtu * per_unit / min_weight
    if spread > envelope:
        laggard = min(normalized, key=normalized.get)
        leader = max(normalized, key=normalized.get)
        unit = "packets" if by_packets else "bytes"
        return [Violation(
            "fairness-envelope",
            f"normalized service spread {spread:.0f} {unit} between "
            f"{leader!r} and {laggard!r} over jointly-backlogged "
            f"window [{start:.6f}, {end:.6f}] exceeds envelope "
            f"{envelope:.0f} {unit}",
            time=start,
            details={"spread_bytes": spread,
                     "envelope_bytes": envelope,
                     "window": (start, end),
                     "normalized": dict(normalized)})]
    return []


# ----------------------------------------------------------------------
# Strict-priority inversion
# ----------------------------------------------------------------------
def check_priority_inversion(run: ConformanceRun) -> List[Violation]:
    priorities = run.flow_priorities()
    if not priorities:
        return []
    horizon = run.horizon()
    # Eligible-resident intervals per flow.
    resident: Dict[Hashable, List[Tuple[float, float]]] = {}
    episodes = list(run.analysis.episodes)
    episodes += list(run.analysis.open_episodes.values())
    for episode in episodes:
        start = run.eligible_from(episode.enqueue_t, episode.send_time)
        end = (episode.dequeue_t if episode.dequeue_t is not None
               else horizon)
        if end > start:
            resident.setdefault(episode.flow_id, []).append((start, end))
    for intervals in resident.values():
        intervals.sort()
    violations: List[Violation] = []
    for timeline in run.analysis.timelines:
        if not timeline.delivered:
            continue
        decision_t = timeline.depart_start
        own = priorities.get(timeline.flow_id)
        if own is None:
            continue
        for other, priority in priorities.items():
            if priority >= own or other == timeline.flow_id:
                continue
            for start, end in resident.get(other, ()):
                if (start < decision_t - TIME_TOLERANCE
                        and end > decision_t + TIME_TOLERANCE):
                    violations.append(Violation(
                        "priority-inversion",
                        f"flow {timeline.flow_id!r} (priority {own}) "
                        f"started service while flow {other!r} "
                        f"(priority {priority}) had an eligible "
                        "element resident",
                        flow_id=timeline.flow_id, time=decision_t,
                        details={"inverted_with": other}))
                    break
                if start > decision_t:
                    break
    return violations


# ----------------------------------------------------------------------
# Token-bucket conformance
# ----------------------------------------------------------------------
def check_token_bucket(run: ConformanceRun) -> List[Violation]:
    """Per-flow ``(rate, burst)`` conformance of the *release* process.

    The shaper's promise is about when it **releases** packets (the
    element's ``send_time``), not when the shared link got around to
    serializing them: multiplexing delays packets behind other flows
    and then burst-compresses their spacing, so a conformant release
    schedule can legitimately exceed the envelope on the wire.  The
    checker therefore debits the reconstructed bucket at each packet's
    release instant; the complementary ``no-early-release`` checker
    pins the wire to never *precede* a release, so together they bound
    the output process.
    """
    if run.scenario is None:
        return []
    default_burst = getattr(run.algorithm, "default_burst_bytes",
                            None) or 3000.0
    # Release instant per delivered packet: the send_time of the
    # episode whose dequeue produced the departure (OUTPUT trigger:
    # dequeue_t == depart_start).  Fall back to depart_start for
    # packets without a matched episode (e.g. trace-audit mode).
    release_at: Dict[Tuple[Hashable, float], float] = {}
    for episode in run.analysis.episodes:
        if episode.dequeue_t is not None and episode.send_time is not None:
            release_at[(episode.flow_id, episode.dequeue_t)] = \
                episode.send_time
    violations: List[Violation] = []
    for flow in run.scenario.flows:
        if flow.rate_bps <= 0:
            continue
        burst = (flow.burst_bytes if flow.burst_bytes is not None
                 else default_burst)
        releases = []
        for timeline in run.analysis.timelines:
            if timeline.flow_id != flow.flow_id or not timeline.delivered:
                continue
            release = release_at.get(
                (flow.flow_id, timeline.depart_start),
                timeline.depart_start)
            release = min(release, timeline.depart_start)
            if timeline.arrival_t is not None:
                release = max(release, timeline.arrival_t)
            releases.append((release, timeline.size_bytes,
                             timeline.packet_id))
        releases.sort()
        first_arrival = min(
            (timeline.arrival_t for timeline in run.analysis.timelines
             if timeline.flow_id == flow.flow_id
             and timeline.arrival_t is not None), default=None)
        for finding in token_bucket_violations(
                releases, flow.rate_bps, burst,
                start_time=first_arrival):
            violations.append(Violation(
                "token-bucket-conformance",
                f"release overdraws the ({flow.rate_bps:.0f} bps, "
                f"{burst:.0f} B) bucket by "
                f"{finding.deficit_bytes:.1f} bytes",
                flow_id=flow.flow_id, time=finding.time,
                details={"deficit_bytes": finding.deficit_bytes,
                         "packet_id": finding.packet_id}))
    return violations


# ----------------------------------------------------------------------
# TDMA slot legality
# ----------------------------------------------------------------------
def check_tdma_slots(run: ConformanceRun) -> List[Violation]:
    algorithm = run.algorithm
    if not isinstance(algorithm, TimeSlotted):
        return []
    slot = algorithm.slot_seconds
    frame = algorithm.frame_seconds
    slots_of: Dict[Hashable, int] = {}
    if run.scenario is not None:
        slots_of = {flow.flow_id: flow.group
                    for flow in run.scenario.flows}
    violations: List[Violation] = []
    grants: Dict[Hashable, List[float]] = {}
    for episode in run.analysis.episodes:
        send_time = episode.send_time
        if not isinstance(send_time, (int, float)):
            continue
        grants.setdefault(episode.flow_id, []).append(send_time)
        boundaries = send_time / slot
        deviation = abs(boundaries - round(boundaries)) * slot
        if deviation > TIME_TOLERANCE:
            violations.append(Violation(
                "tdma-slots",
                f"grant at t={send_time:.9f} is {deviation:.3e}s off "
                "the slot grid",
                flow_id=episode.flow_id, time=send_time))
            continue
        expected = slots_of.get(episode.flow_id)
        if expected is not None:
            index = round(send_time / slot) % algorithm.frame_slots
            if index != expected:
                violations.append(Violation(
                    "tdma-slots",
                    f"grant at t={send_time:.9f} lands in slot "
                    f"{index}, but the flow owns slot {expected}",
                    flow_id=episode.flow_id, time=send_time))
    for flow_id, times in grants.items():
        times.sort()
        for before, after in zip(times, times[1:]):
            if after - before < frame - TIME_TOLERANCE:
                violations.append(Violation(
                    "tdma-slots",
                    f"grants at t={before:.9f} and t={after:.9f} are "
                    f"{after - before:.6f}s apart (< one "
                    f"{frame:.6f}s frame)",
                    flow_id=flow_id, time=after))
    return violations


CHECKERS: Dict[str, Callable[[ConformanceRun], List[Violation]]] = {
    "conservation": check_conservation,
    "per-flow-fifo": check_per_flow_fifo,
    "link-overlap": check_link_overlap,
    "work-conservation": check_idle_while_eligible,
    "idle-legality": check_idle_while_eligible,
    "no-early-release": check_no_early_release,
    "gps-delay-bound": check_gps_delay_bound,
    "fairness-envelope": check_fairness_envelope,
    "priority-inversion": check_priority_inversion,
    "token-bucket-conformance": check_token_bucket,
    "tdma-slots": check_tdma_slots,
}


def run_checker(name: str, run: ConformanceRun) -> List[Violation]:
    """Run one named checker against a run."""
    return CHECKERS[name](run)
