"""Offline trace analysis: per-packet timelines, latency attribution,
per-flow reports, and conservation/ordering audits.

PR 3 gave the raw signal — a :class:`repro.obs.trace.Tracer` emitting
typed, sim-time-stamped events — and this module interprets it.  From a
trace (in-process events, or the JSONL export re-read with
:func:`repro.obs.trace.read_jsonl`) it reconstructs every packet's
lifecycle::

    arrival -> enqueue -> eligible -> dequeue -> departure | drop

and attributes each delivered packet's end-to-end latency to three
components that sum exactly:

* **eligibility wait** — the PIEO-specific component: time the packet's
  flow element (or an ancestor node's element, in a hierarchy) sat in an
  ordered list with its predicate still false.  Derived from the
  ``eligible`` flag on ``enqueue`` events and the ``eligible_at`` field
  on ``dequeue`` events; overlapping ineligible intervals along the
  flow's ancestor chain are unioned, never double-counted.
* **serialization** — time on the wire (``finish - t`` of the
  ``departure`` event).
* **queueing wait** — the residual: waiting behind other packets (or
  other flows' grants) while nominally eligible.

Elements that enter *ineligible* under a virtual time base (WF2Q+ and
friends) have no wall-clock transition instant; their whole residence is
conservatively attributed to eligibility wait and the affected packets
are flagged ``eligibility_exact=False``.

On top of the timelines: per-flow reports with exact (sample-sorted)
p50/p90/p99/p999 latency, a starvation detector, and audits that fail
loudly on truncated or corrupted traces.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.analysis.quantiles import exact_quantile

#: Sim-time comparisons tolerate this much float noise (seconds).
TIME_EPSILON = 1e-12

#: Kinds stamped at the simulator's current time when emitted.  These
#: must be monotone within one run.  ``departure``/``link_*`` are
#: stamped at link-transmit times, which run *ahead* of sim time when
#: the engine logs a multi-packet batch at once — the link-overlap
#: audit covers their ordering instead.
MONOTONE_KINDS = frozenset((
    "arrival", "enqueue", "dequeue", "drop", "kick",
    "timer_arm", "timer_fire", "timer_cancel", "mark",
))


def default_parent_of(flow_id: Hashable) -> Optional[Hashable]:
    """Ancestor convention of the evaluation topology: leaf ``"n6.f2"``
    is owned by node ``"n6"``; anything without a dot is a root-level
    entity."""
    if isinstance(flow_id, str) and "." in flow_id:
        return flow_id.rsplit(".", 1)[0]
    return None


def _as_dicts(events) -> List[Dict[str, object]]:
    """Accept ``read_jsonl`` dicts or in-process ``TraceEvent`` objects
    (no lossy JSON round-trip for the latter)."""
    records = []
    for event in events:
        if isinstance(event, dict):
            records.append(event)
        else:
            record = {"t": event.time, "kind": event.kind}
            record.update(event.fields)
            records.append(record)
    return records


@dataclass
class Run:
    """One mark-delimited segment of a trace stream (sim time restarts
    at every sweep point, so analysis must be per segment)."""

    label: Optional[str]
    fields: Dict[str, object]
    events: List[Dict[str, object]]

    @property
    def title(self) -> str:
        if self.label is None:
            return "(unlabelled run)"
        extras = ", ".join(f"{key}={value}"
                           for key, value in sorted(self.fields.items()))
        return f"{self.label} [{extras}]" if extras else self.label


def split_runs(events) -> List[Run]:
    """Split a trace stream into mark-delimited runs.  Every ``mark``
    event starts a new run labelled by it; events before the first mark
    form an unlabelled run (dropped when empty)."""
    records = _as_dicts(events)
    runs: List[Run] = []
    current = Run(label=None, fields={}, events=[])
    for record in records:
        if record.get("kind") == "mark":
            if current.events or current.label is not None:
                runs.append(current)
            fields = {key: value for key, value in record.items()
                      if key not in ("t", "kind", "label")}
            current = Run(label=record.get("label"), fields=fields,
                          events=[])
        else:
            current.events.append(record)
    if current.events or current.label is not None:
        runs.append(current)
    return runs


#: Event kinds that carry packet/flow semantics — used to decide
#: whether an unlabelled bucket of a multi-switch trace is worth
#: analyzing (the simulator's own timer/span events carry no ``switch``
#: label and would otherwise produce an empty phantom switch).
PACKET_KINDS = frozenset((
    "arrival", "enqueue", "eligible", "dequeue", "departure", "drop",
))


def split_switches(events) -> Dict[Optional[str],
                                   List[Dict[str, object]]]:
    """Partition one run's events by their ``switch`` label (from
    :func:`repro.obs.trace.labelled` views), preserving order.
    Unlabelled events land under ``None`` — a single-switch trace is
    one ``None`` bucket."""
    records = _as_dicts(events)
    buckets: Dict[Optional[str], List[Dict[str, object]]] = {}
    for record in records:
        buckets.setdefault(record.get("switch"), []).append(record)
    return buckets


def switch_analyses(events,
                    parent_of: "Callable[[Hashable], Optional[Hashable]]"
                    = None) -> List[Tuple[Optional[str],
                                          "TraceAnalysis"]]:
    """``(switch_label, TraceAnalysis)`` per switch of one run.

    Multi-switch (fabric) traces record each packet once *per hop*; a
    whole-run analysis would see duplicate arrivals and overlapping
    links, so analysis always happens per switch track.  Single-switch
    traces yield exactly one ``(None, analysis)`` entry, keeping every
    existing caller's semantics.  An unlabelled bucket containing no
    packet events (marks or spans) is dropped when labelled tracks
    exist.
    """
    if parent_of is None:
        parent_of = default_parent_of
    buckets = split_switches(events)
    if len(buckets) > 1 and None in buckets:
        if not any(record.get("kind") in PACKET_KINDS
                   for record in buckets[None]):
            del buckets[None]
    ordered = sorted(buckets.items(),
                     key=lambda item: (item[0] is not None,
                                       str(item[0])))
    return [(switch, TraceAnalysis(bucket, parent_of=parent_of))
            for switch, bucket in ordered]


@dataclass
class Episode:
    """One enqueue->dequeue residence of a flow element in an ordered
    list."""

    flow_id: Hashable
    enqueue_t: float
    dequeue_t: Optional[float] = None
    send_time: Optional[float] = None
    rank: Optional[float] = None
    eligible_on_enqueue: bool = True
    eligible_at: Optional[float] = None
    requeue: bool = False
    port: Optional[str] = None

    def ineligible_interval(self) -> Optional[Tuple[float, float, bool]]:
        """``(start, end, exact)`` during which the element sat
        ineligible, or ``None``.  Open episodes (still resident at trace
        end) contribute nothing — only delivered packets are
        attributed, and their episodes closed."""
        if self.dequeue_t is None or self.eligible_on_enqueue:
            return None
        if self.eligible_at is None:
            # Virtual-base entry: transition unobservable in wall time;
            # the whole residence bounds the eligibility wait.
            return (self.enqueue_t, self.dequeue_t, False)
        end = min(max(self.eligible_at, self.enqueue_t), self.dequeue_t)
        if end <= self.enqueue_t + TIME_EPSILON:
            return None
        return (self.enqueue_t, end, True)


@dataclass
class PacketTimeline:
    """One packet's reconstructed lifecycle and latency attribution."""

    packet_id: Optional[int]
    flow_id: Hashable
    size_bytes: int = 0
    port: Optional[str] = None
    arrival_t: Optional[float] = None
    depart_start: Optional[float] = None
    depart_end: Optional[float] = None
    dropped: bool = False
    drop_t: Optional[float] = None
    drop_reason: str = ""
    latency: Optional[float] = None
    queueing_wait: Optional[float] = None
    eligibility_wait: Optional[float] = None
    serialization: Optional[float] = None
    eligibility_exact: bool = True

    @property
    def delivered(self) -> bool:
        return self.depart_end is not None


@dataclass
class Issue:
    """One audit finding.  ``error`` severity makes ``audit`` fail."""

    severity: str  # "error" | "warning"
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


@dataclass
class FlowReport:
    """Aggregate per-flow view over one run."""

    flow_id: Hashable
    port: Optional[str] = None
    packets: int = 0
    drops: int = 0
    bytes: int = 0
    throughput_bps: float = 0.0
    mean_latency: float = 0.0
    p50: float = 0.0
    p90: float = 0.0
    p99: float = 0.0
    p999: float = 0.0
    mean_queueing: float = 0.0
    mean_eligibility: float = 0.0
    mean_serialization: float = 0.0
    eligibility_exact: bool = True
    starved: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "flow_id": self.flow_id,
            "port": self.port,
            "packets": self.packets,
            "drops": self.drops,
            "bytes": self.bytes,
            "throughput_bps": self.throughput_bps,
            "mean_latency": self.mean_latency,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "p999": self.p999,
            "mean_queueing": self.mean_queueing,
            "mean_eligibility": self.mean_eligibility,
            "mean_serialization": self.mean_serialization,
            "eligibility_exact": self.eligibility_exact,
            "starved": self.starved,
        }


class _IntervalSet:
    """Merged, sorted, non-overlapping intervals with exactness flags;
    supports O(log n + k) overlap queries."""

    __slots__ = ("starts", "ends", "exact")

    def __init__(self, intervals: List[Tuple[float, float, bool]]) -> None:
        intervals = sorted(intervals)
        starts: List[float] = []
        ends: List[float] = []
        exact: List[bool] = []
        for start, end, is_exact in intervals:
            if ends and start <= ends[-1] + TIME_EPSILON:
                ends[-1] = max(ends[-1], end)
                exact[-1] = exact[-1] and is_exact
            else:
                starts.append(start)
                ends.append(end)
                exact.append(is_exact)
        self.starts = starts
        self.ends = ends
        self.exact = exact

    def clipped(self, lo: float,
                hi: float) -> List[Tuple[float, float, bool]]:
        """Intervals intersected with ``[lo, hi]``."""
        if hi <= lo or not self.starts:
            return []
        result = []
        index = bisect_right(self.ends, lo)
        while index < len(self.starts) and self.starts[index] < hi:
            start = max(self.starts[index], lo)
            end = min(self.ends[index], hi)
            if end > start:
                result.append((start, end, self.exact[index]))
            index += 1
        return result


class TraceAnalysis:
    """Timelines, per-flow reports, and audits over one trace run.

    Parameters
    ----------
    events:
        Event dicts (from :func:`repro.obs.trace.read_jsonl`) or
        in-process :class:`~repro.obs.trace.TraceEvent` objects of ONE
        run (sim time must not restart; use :func:`split_runs` for
        mark-delimited sweep streams).
    parent_of:
        Maps a flow id to the id of its owning hierarchy node (or
        ``None`` at the root); ancestor elements' ineligible time counts
        toward a packet's eligibility wait (a token-bucket-limited node
        shapes every packet beneath it).  Defaults to the ``"nX.fY"``
        convention of the evaluation topology.
    """

    def __init__(self, events,
                 parent_of: Callable[[Hashable], Optional[Hashable]]
                 = default_parent_of) -> None:
        self.events = _as_dicts(events)
        self.parent_of = parent_of
        self.issues: List[Issue] = []
        self.timelines: List[PacketTimeline] = []
        self.episodes: List[Episode] = []
        self.open_episodes: Dict[Hashable, Episode] = {}
        self.t_min: Optional[float] = None
        self.t_max: Optional[float] = None
        self._packets: Dict[int, PacketTimeline] = {}
        self._episodes_by_flow: Dict[Hashable, List[Episode]] = \
            defaultdict(list)
        self._arrival_order: Dict[Hashable, List[int]] = \
            defaultdict(list)
        self._departure_order: Dict[Hashable, List[int]] = \
            defaultdict(list)
        self._arrival_times: Dict[Hashable, List[float]] = \
            defaultdict(list)
        #: ``(t, flow_id, size, packet_id, finish, port)`` per
        #: departure; ``port`` is None on unlabelled (single-link)
        #: traces.
        self._departure_events: List[Tuple[float, Hashable, int,
                                           Optional[int], float,
                                           Optional[str]]] = []
        self._dequeue_times: Dict[Hashable, List[float]] = \
            defaultdict(list)
        self._op_counts: Dict[Hashable, int] = defaultdict(int)
        self._build()
        self._attribute_all()

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def _error(self, message: str) -> None:
        self.issues.append(Issue("error", message))

    def _warn(self, message: str) -> None:
        self.issues.append(Issue("warning", message))

    def _build(self) -> None:
        last_t = None
        for record in self.events:
            kind = record.get("kind")
            t = record.get("t")
            if not isinstance(t, (int, float)) or kind is None:
                self._error(f"event without numeric t/kind: {record}")
                continue
            if kind == "span":
                continue  # wall-clock spans carry no sim-time ordering
            if kind in MONOTONE_KINDS:
                if last_t is not None and t < last_t - TIME_EPSILON:
                    self._error(
                        f"sim time went backwards: {last_t} -> {t} "
                        f"({kind}); trace is corrupted or mixes runs "
                        "(use split_runs on mark-delimited streams)")
                last_t = t
            self.t_min = t if self.t_min is None else min(self.t_min, t)
            self.t_max = t if self.t_max is None else max(self.t_max, t)
            handler = getattr(self, f"_on_{kind}", None)
            if handler is not None:
                handler(t, record)

    def _on_arrival(self, t: float, record: Dict[str, object]) -> None:
        flow_id = record.get("flow_id")
        packet_id = record.get("packet_id")
        timeline = PacketTimeline(
            packet_id=packet_id, flow_id=flow_id,
            size_bytes=record.get("size_bytes") or 0,
            port=record.get("port"), arrival_t=t)
        if packet_id is not None:
            if packet_id in self._packets:
                self._error(f"duplicate arrival for packet {packet_id}")
                return
            self._packets[packet_id] = timeline
        self.timelines.append(timeline)
        self._arrival_order[flow_id].append(packet_id)
        self._arrival_times[flow_id].append(t)

    def _on_enqueue(self, t: float, record: Dict[str, object]) -> None:
        flow_id = record.get("flow_id")
        self._op_counts[flow_id] += 1
        if flow_id in self.open_episodes:
            self._error(
                f"enqueue of flow {flow_id!r} at t={t} while already "
                "resident (missing dequeue event?)")
            self._close_episode(self.open_episodes.pop(flow_id), t,
                               record={})
        eligible = record.get("eligible")
        episode = Episode(
            flow_id=flow_id, enqueue_t=t,
            send_time=record.get("send_time"),
            rank=record.get("rank"),
            eligible_on_enqueue=(True if eligible is None
                                 else bool(eligible)),
            requeue=bool(record.get("requeue")),
            port=record.get("port"))
        self.open_episodes[flow_id] = episode

    def _on_dequeue(self, t: float, record: Dict[str, object]) -> None:
        flow_id = record.get("flow_id")
        self._op_counts[flow_id] += 1
        episode = self.open_episodes.pop(flow_id, None)
        if episode is None:
            self._error(
                f"dequeue of flow {flow_id!r} at t={t} without a "
                "matching enqueue (truncated trace?)")
            return
        self._close_episode(episode, t, record)

    def _close_episode(self, episode: Episode, t: float,
                       record: Dict[str, object]) -> None:
        episode.dequeue_t = t
        eligible_at = record.get("eligible_at")
        if isinstance(eligible_at, (int, float)):
            episode.eligible_at = eligible_at
        self.episodes.append(episode)
        self._episodes_by_flow[episode.flow_id].append(episode)
        self._dequeue_times[episode.flow_id].append(t)

    def _on_departure(self, t: float, record: Dict[str, object]) -> None:
        flow_id = record.get("flow_id")
        packet_id = record.get("packet_id")
        size = record.get("size_bytes") or 0
        finish = record.get("finish")
        if not isinstance(finish, (int, float)) or finish < t:
            self._error(
                f"departure of packet {packet_id} at t={t} with "
                f"invalid finish {finish!r}")
            finish = t
        timeline = (self._packets.get(packet_id)
                    if packet_id is not None else None)
        if timeline is None:
            self._error(
                f"departure of packet {packet_id} (flow {flow_id!r}) "
                "without a matching arrival event (truncated or "
                "ring-evicted trace)")
            timeline = PacketTimeline(packet_id=packet_id,
                                      flow_id=flow_id, size_bytes=size)
            arrival_t = record.get("arrival_t")
            if isinstance(arrival_t, (int, float)):
                timeline.arrival_t = arrival_t
            if packet_id is not None:
                self._packets[packet_id] = timeline
            self.timelines.append(timeline)
        if timeline.depart_end is not None:
            self._error(f"packet {packet_id} departed twice")
            return
        timeline.depart_start = t
        timeline.depart_end = finish
        if timeline.port is None:
            timeline.port = record.get("port")
        self._departure_order[flow_id].append(packet_id)
        self._departure_events.append(
            (t, flow_id, size, packet_id, finish, record.get("port")))

    def _on_drop(self, t: float, record: Dict[str, object]) -> None:
        flow_id = record.get("flow_id")
        packet_id = record.get("packet_id")
        timeline = (self._packets.get(packet_id)
                    if packet_id is not None else None)
        if timeline is None:
            timeline = PacketTimeline(packet_id=packet_id,
                                      flow_id=flow_id)
            self.timelines.append(timeline)
            if packet_id is not None:
                self._packets[packet_id] = timeline
        timeline.dropped = True
        timeline.drop_t = t
        timeline.drop_reason = str(record.get("reason", ""))
        if timeline.port is None:
            timeline.port = record.get("port")

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def _ancestor_chain(self, flow_id: Hashable) -> List[Hashable]:
        chain = [flow_id]
        seen = {flow_id}
        node = self.parent_of(flow_id)
        while node is not None and node not in seen:
            chain.append(node)
            seen.add(node)
            node = self.parent_of(node)
        return chain

    def _attribute_all(self) -> None:
        interval_sets: Dict[Hashable, _IntervalSet] = {}
        for flow_id, episodes in self._episodes_by_flow.items():
            intervals = [interval for episode in episodes
                         if (interval :=
                             episode.ineligible_interval()) is not None]
            if intervals:
                interval_sets[flow_id] = _IntervalSet(intervals)
        chains: Dict[Hashable, List[Hashable]] = {}
        for timeline in self.timelines:
            if not timeline.delivered or timeline.arrival_t is None:
                continue
            chain = chains.get(timeline.flow_id)
            if chain is None:
                chain = chains[timeline.flow_id] = [
                    flow_id for flow_id
                    in self._ancestor_chain(timeline.flow_id)
                    if flow_id in interval_sets]
            lo, hi = timeline.arrival_t, timeline.depart_start
            clipped: List[Tuple[float, float, bool]] = []
            for flow_id in chain:
                clipped.extend(interval_sets[flow_id].clipped(lo, hi))
            exact = all(is_exact for _, _, is_exact in clipped)
            merged = _IntervalSet(clipped) if clipped else None
            wait = (sum(end - start for start, end
                        in zip(merged.starts, merged.ends))
                    if merged is not None else 0.0)
            total = timeline.depart_end - timeline.arrival_t
            serialization = timeline.depart_end - timeline.depart_start
            timeline.latency = total
            timeline.eligibility_wait = wait
            timeline.serialization = serialization
            timeline.queueing_wait = total - serialization - wait
            timeline.eligibility_exact = exact
            if timeline.queueing_wait < -TIME_EPSILON * max(1.0, total):
                if exact:
                    self._error(
                        f"packet {timeline.packet_id}: attribution "
                        f"exceeds end-to-end latency "
                        f"(queueing={timeline.queueing_wait:.3e})")
                else:
                    # Conservative virtual-base bound overshot; clamp
                    # and keep the inexactness flag.
                    timeline.eligibility_wait += timeline.queueing_wait
                    timeline.queueing_wait = 0.0

    # ------------------------------------------------------------------
    # Per-flow reports
    # ------------------------------------------------------------------
    def flows(self, starvation_threshold: Optional[float] = None,
              ) -> Dict[Hashable, FlowReport]:
        """Per-flow aggregate reports over the run.  Percentiles are
        exact (sample-sorted), not bucketed."""
        span_start = self.t_min if self.t_min is not None else 0.0
        span_end = self.t_max if self.t_max is not None else 0.0
        span = max(span_end - span_start, 0.0)
        reports: Dict[Hashable, FlowReport] = {}
        grouped: Dict[Hashable, List[PacketTimeline]] = defaultdict(list)
        for timeline in self.timelines:
            grouped[timeline.flow_id].append(timeline)
        starved = (set(flow for flow, _, _ in
                       self.starved_flows(starvation_threshold))
                   if starvation_threshold is not None else set())
        for flow_id, timelines in grouped.items():
            delivered = [timeline for timeline in timelines
                         if timeline.delivered
                         and timeline.latency is not None]
            report = FlowReport(flow_id=flow_id)
            report.port = next(
                (timeline.port for timeline in timelines
                 if timeline.port is not None), None)
            report.drops = sum(1 for timeline in timelines
                               if timeline.dropped)
            report.packets = len(delivered)
            report.bytes = sum(timeline.size_bytes
                               for timeline in delivered)
            if span > 0:
                report.throughput_bps = report.bytes * 8 / span
            if delivered:
                latencies = sorted(timeline.latency
                                   for timeline in delivered)
                count = len(latencies)
                report.mean_latency = sum(latencies) / count
                report.p50 = exact_quantile(latencies, 0.50)
                report.p90 = exact_quantile(latencies, 0.90)
                report.p99 = exact_quantile(latencies, 0.99)
                report.p999 = exact_quantile(latencies, 0.999)
                report.mean_queueing = sum(
                    timeline.queueing_wait
                    for timeline in delivered) / count
                report.mean_eligibility = sum(
                    timeline.eligibility_wait
                    for timeline in delivered) / count
                report.mean_serialization = sum(
                    timeline.serialization
                    for timeline in delivered) / count
                report.eligibility_exact = all(
                    timeline.eligibility_exact
                    for timeline in delivered)
            report.starved = flow_id in starved
            reports[flow_id] = report
        return reports

    # ------------------------------------------------------------------
    # Per-port aggregates (multi-port dataplane traces)
    # ------------------------------------------------------------------
    def port_summary(self) -> Dict[Optional[str], Dict[str, object]]:
        """Aggregate per-port view: arrivals, deliveries, drops (with
        per-reason counts), bytes and throughput.  Unlabelled events
        aggregate under the ``None`` port (single-link traces produce
        exactly that one entry)."""
        span_start = self.t_min if self.t_min is not None else 0.0
        span_end = self.t_max if self.t_max is not None else 0.0
        span = max(span_end - span_start, 0.0)
        summary: Dict[Optional[str], Dict[str, object]] = {}

        def entry(port: Optional[str]) -> Dict[str, object]:
            record = summary.get(port)
            if record is None:
                record = summary[port] = {
                    "arrivals": 0, "delivered": 0, "drops": 0,
                    "bytes": 0, "throughput_bps": 0.0,
                    "drop_reasons": {},
                }
            return record

        for timeline in self.timelines:
            record = entry(timeline.port)
            if timeline.arrival_t is not None:
                record["arrivals"] += 1
            if timeline.delivered:
                record["delivered"] += 1
                record["bytes"] += timeline.size_bytes
            if timeline.dropped:
                record["drops"] += 1
                reasons = record["drop_reasons"]
                reason = timeline.drop_reason or "(unspecified)"
                reasons[reason] = reasons.get(reason, 0) + 1
        if span > 0:
            for record in summary.values():
                record["throughput_bps"] = record["bytes"] * 8 / span
        return summary

    # ------------------------------------------------------------------
    # Starvation detection
    # ------------------------------------------------------------------
    def starved_flows(self, threshold: Optional[float] = None,
                      ) -> List[Tuple[Hashable, float, float]]:
        """Flows with backlog but no dequeue for longer than
        ``threshold`` seconds: ``(flow_id, gap_start, gap_end)`` per
        offending gap.  Default threshold: 1% of the run span."""
        if threshold is None:
            span = ((self.t_max or 0.0) - (self.t_min or 0.0))
            threshold = span * 0.01 if span > 0 else 0.0
        if threshold <= 0:
            return []
        end_of_trace = self.t_max if self.t_max is not None else 0.0
        findings: List[Tuple[Hashable, float, float]] = []
        for flow_id, arrivals in self._arrival_times.items():
            departures = sorted(
                timeline.depart_start
                for timeline in self._packets.values()
                if timeline.flow_id == flow_id and timeline.delivered)
            service = sorted(self._dequeue_times.get(flow_id, []))
            for start, end in self._backlogged_intervals(
                    arrivals, departures, end_of_trace):
                marks = [start]
                marks += [t for t in service if start <= t <= end]
                marks.append(end)
                for before, after in zip(marks, marks[1:]):
                    if after - before > threshold:
                        findings.append((flow_id, before, after))
        return findings

    @staticmethod
    def _backlogged_intervals(arrivals: List[float],
                              departures: List[float],
                              end_of_trace: float,
                              ) -> List[Tuple[float, float]]:
        """Intervals during which arrivals outnumber departures."""
        steps = ([(t, 1) for t in arrivals]
                 + [(t, -1) for t in departures])
        steps.sort()
        intervals = []
        backlog = 0
        opened: Optional[float] = None
        for t, delta in steps:
            backlog += delta
            if backlog > 0 and opened is None:
                opened = t
            elif backlog <= 0 and opened is not None:
                intervals.append((opened, t))
                opened = None
        if opened is not None:
            intervals.append((opened, end_of_trace))
        return intervals

    # ------------------------------------------------------------------
    # Hardware-cost attribution
    # ------------------------------------------------------------------
    def cost_attribution(self, counters_snapshot: Dict[str, float],
                         ) -> Dict[Hashable, Dict[str, float]]:
        """Join a backend :class:`~repro.core.opstats.OpCounters`
        snapshot against the per-flow op counts: each flow (or node) is
        charged its op-proportional share of cycles, SRAM sublist
        ports, and comparator/encoder activations."""
        total_ops = sum(self._op_counts.values())
        if total_ops == 0:
            return {}
        dimensions = ("cycles", "sram_sublist_reads",
                      "sram_sublist_writes", "comparator_activations",
                      "encoder_activations")
        attribution: Dict[Hashable, Dict[str, float]] = {}
        for flow_id, ops in self._op_counts.items():
            share = ops / total_ops
            attribution[flow_id] = {"ops": ops, "share": share}
            for dimension in dimensions:
                total = counters_snapshot.get(dimension, 0)
                attribution[flow_id][dimension] = total * share
        return attribution

    # ------------------------------------------------------------------
    # Audits
    # ------------------------------------------------------------------
    def audit(self) -> List[Issue]:
        """Full conservation/ordering audit; returns the accumulated
        issues (reconstruction errors included).  A trace is healthy
        when no issue has ``error`` severity."""
        issues = list(self.issues)
        issues.extend(self.audit_conservation())
        issues.extend(self.audit_flow_ordering())
        issues.extend(self.audit_link_overlap())
        return issues

    @property
    def errors(self) -> List[Issue]:
        return [issue for issue in self.audit()
                if issue.severity == "error"]

    def audit_conservation(self) -> List[Issue]:
        """Packet conservation: arrivals cover departures plus drops;
        packets or list elements left over at the end are warnings."""
        issues: List[Issue] = []
        arrived = sum(1 for timeline in self.timelines
                      if timeline.arrival_t is not None)
        delivered = sum(1 for timeline in self.timelines
                        if timeline.delivered)
        dropped = sum(1 for timeline in self.timelines
                      if timeline.dropped)
        in_flight = [timeline for timeline in self.timelines
                     if timeline.arrival_t is not None
                     and not timeline.delivered and not timeline.dropped]
        if arrived < delivered + dropped:
            issues.append(Issue(
                "error",
                f"packet conservation violated: {arrived} arrivals < "
                f"{delivered} departures + {dropped} drops"))
        if in_flight:
            issues.append(Issue(
                "warning",
                f"{len(in_flight)} packet(s) still in flight at end "
                "of trace"))
        if self.open_episodes:
            issues.append(Issue(
                "warning",
                f"{len(self.open_episodes)} flow element(s) still "
                "resident in ordered lists at end of trace"))
        return issues

    def audit_flow_ordering(self) -> List[Issue]:
        """Per-flow FIFO: packets of one flow must depart in arrival
        order (the per-flow queues are FIFOs; a violation means the
        trace, or the scheduler, is broken)."""
        issues: List[Issue] = []
        for flow_id, departed in self._departure_order.items():
            arrival_pos = {packet_id: position for position, packet_id
                           in enumerate(self._arrival_order[flow_id])
                           if packet_id is not None}
            positions = [arrival_pos[packet_id] for packet_id in departed
                         if packet_id in arrival_pos]
            out_of_order = sum(
                1 for before, after in zip(positions, positions[1:])
                if after < before)
            if out_of_order:
                issues.append(Issue(
                    "error",
                    f"flow {flow_id!r}: {out_of_order} departure(s) "
                    "out of per-flow FIFO order"))
        return issues

    def audit_link_overlap(self) -> List[Issue]:
        """Each link serializes one packet at a time: departure windows
        must not overlap *per port* (an unlabelled trace is one link;
        a multi-port trace is audited per ``port`` label — cross-port
        windows legitimately overlap in wall time)."""
        issues: List[Issue] = []
        last_finish: Dict[Optional[str], float] = {}
        overlaps: Dict[Optional[str], int] = defaultdict(int)
        for t, _flow_id, _size, _packet_id, finish, port in \
                self._departure_events:
            previous = last_finish.get(port)
            if previous is not None and t < previous - TIME_EPSILON:
                overlaps[port] += 1
            last_finish[port] = finish
        for port, count in sorted(overlaps.items(),
                                  key=lambda item: str(item[0])):
            where = f"port {port} link" if port is not None else "the link"
            issues.append(Issue(
                "error",
                f"{count} departure(s) started while {where} was "
                "still serializing the previous packet"))
        return issues

