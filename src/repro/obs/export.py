"""Standard-format exporters for traces and metrics.

Two formats so the observability data plugs into off-the-shelf tooling:

* **Prometheus text exposition** (:func:`prometheus_from_snapshot`)
  — every counter, gauge (with min/max watermarks), fixed-bucket
  histogram, and log-scaled
  :class:`~repro.obs.metrics.LogHistogram` of a
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot, with correct
  ``# TYPE`` annotations and cumulative ``le`` buckets;
* **Perfetto / Chrome ``trace_event`` JSON** (:func:`perfetto_trace`)
  — loads in ``ui.perfetto.dev`` or ``chrome://tracing``.  Flows (and
  hierarchy nodes) become tracks; each ordered-list residence
  (enqueue→dequeue) and each wire serialization becomes a complete
  ``X`` span; drops and kicks become instant events.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, Hashable, List, Optional

from repro.obs.analyze import TraceAnalysis

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Sim seconds -> trace_event microseconds.
_US = 1e6


def _metric_name(name: str, namespace: str = "repro") -> str:
    sanitized = _NAME_RE.sub("_", str(name))
    return f"{namespace}_{sanitized}" if namespace else sanitized


def _format_value(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)


def _histogram_lines(name: str, bounds: List[float],
                     cumulative: List[int], count: int,
                     total: float) -> List[str]:
    """Prometheus histogram series: cumulative ``le`` buckets capped by
    ``+Inf`` = count, plus ``_sum`` / ``_count``."""
    lines = [f"# TYPE {name} histogram"]
    for bound, running in zip(bounds, cumulative):
        lines.append(
            f'{name}_bucket{{le="{_format_value(float(bound))}"}} '
            f"{running}")
    lines.append(f'{name}_bucket{{le="+Inf"}} {count}')
    lines.append(f"{name}_sum {_format_value(total)}")
    lines.append(f"{name}_count {count}")
    return lines


def prometheus_from_snapshot(snapshot: Dict[str, Dict],
                             namespace: str = "repro") -> str:
    """Render a :meth:`MetricsRegistry.to_dict` snapshot (live, or re-read
    from a ``--metrics`` JSON file) in Prometheus text exposition
    format."""
    lines: List[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _metric_name(name, namespace) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name, gauge in sorted(snapshot.get("gauges", {}).items()):
        metric = _metric_name(name, namespace)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauge.get('value'))}")
        for watermark in ("min", "max"):
            level = gauge.get(watermark)
            if level is None:
                continue
            lines.append(f"# TYPE {metric}_{watermark} gauge")
            lines.append(
                f"{metric}_{watermark} {_format_value(level)}")
    for name, histogram in sorted(
            snapshot.get("histograms", {}).items()):
        metric = _metric_name(name, namespace)
        bounds = list(histogram.get("buckets", []))
        counts = list(histogram.get("counts", []))
        cumulative, running = [], 0
        for bucket_count in counts[:len(bounds)]:
            running += bucket_count
            cumulative.append(running)
        lines.extend(_histogram_lines(
            metric, bounds, cumulative, histogram.get("count", 0),
            histogram.get("sum", 0.0)))
    for name, histogram in sorted(
            snapshot.get("log_histograms", {}).items()):
        metric = _metric_name(name, namespace)
        bounds = [histogram.get("min_value", 0.0)]
        bounds += list(histogram.get("bounds", []))
        cumulative = [histogram.get("underflow", 0)]
        running = cumulative[0]
        for bucket_count in histogram.get("counts", []):
            running += bucket_count
            cumulative.append(running)
        lines.extend(_histogram_lines(
            metric, bounds, cumulative, histogram.get("count", 0),
            histogram.get("sum", 0.0)))
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Perfetto / Chrome trace_event JSON
# ----------------------------------------------------------------------
_ENGINE_TRACK = "engine"


def _json_arg(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def perfetto_trace(analysis: TraceAnalysis,
                   process_name: str = "pieo-sim") -> Dict[str, object]:
    """Build a Chrome/Perfetto ``trace_event`` JSON object from an
    analyzed run.

    One *process* (pid) per dataplane port — events without a ``port``
    label (single-link traces) share one process, so single-port traces
    render exactly as before, while a multi-port trace shows each
    port's flows as a separate named process group.  Within a process:
    one track (tid) per flow or hierarchy node; complete ``X`` events
    (begin + duration, so begin/end are balanced by construction) for
    ordered-list residences (``queued``) and wire serializations
    (``tx``); instant events for drops and engine kicks.  Events are
    sorted by timestamp, so every track is monotonic.
    """
    pids: Dict[Optional[str], int] = {}
    track_ids: Dict[tuple, int] = {}

    def pid_of(port: Optional[str]) -> int:
        pid = pids.get(port)
        if pid is None:
            pid = pids[port] = len(pids) + 1
        return pid

    def track_of(port: Optional[str], name: Hashable) -> int:
        key = (port, name)
        tid = track_ids.get(key)
        if tid is None:
            tid = track_ids[key] = len(track_ids)
        return tid

    # The engine track comes first (tid 0), as in single-link exports.
    track_of(None, _ENGINE_TRACK)

    t0 = analysis.t_min if analysis.t_min is not None else 0.0
    events: List[Dict[str, object]] = []

    def us(t: float) -> float:
        return round((t - t0) * _US, 3)

    for episode in analysis.episodes:
        args = {"rank": _json_arg(episode.rank),
                "send_time": _json_arg(episode.send_time),
                "eligible_on_enqueue": episode.eligible_on_enqueue}
        if episode.eligible_at is not None:
            args["eligible_at_us"] = us(episode.eligible_at)
        if episode.requeue:
            args["requeue"] = True
        events.append({
            "name": "queued", "cat": "sched", "ph": "X",
            "ts": us(episode.enqueue_t),
            "dur": max(round((episode.dequeue_t - episode.enqueue_t)
                             * _US, 3), 0.0),
            "pid": pid_of(episode.port),
            "tid": track_of(episode.port, episode.flow_id),
            "args": args,
        })
    for timeline in analysis.timelines:
        if timeline.delivered:
            events.append({
                "name": f"tx pkt {timeline.packet_id}", "cat": "link",
                "ph": "X", "ts": us(timeline.depart_start),
                "dur": max(round(timeline.serialization * _US, 3),
                           0.0),
                "pid": pid_of(timeline.port),
                "tid": track_of(timeline.port, timeline.flow_id),
                "args": {
                    "size_bytes": timeline.size_bytes,
                    "latency_us": round(
                        (timeline.latency or 0.0) * _US, 3),
                    "queueing_us": round(
                        (timeline.queueing_wait or 0.0) * _US, 3),
                    "eligibility_us": round(
                        (timeline.eligibility_wait or 0.0) * _US, 3),
                },
            })
        if timeline.dropped and timeline.drop_t is not None:
            events.append({
                "name": "drop", "cat": "sched", "ph": "i", "s": "t",
                "ts": us(timeline.drop_t),
                "pid": pid_of(timeline.port),
                "tid": track_of(timeline.port, timeline.flow_id),
                "args": {"reason": timeline.drop_reason},
            })
    for record in analysis.events:
        if record.get("kind") != "kick":
            continue
        port = record.get("port")
        events.append({
            "name": "kick", "cat": "engine", "ph": "i", "s": "t",
            "ts": us(record["t"]), "pid": pid_of(port),
            "tid": track_of(port, _ENGINE_TRACK), "args": {},
        })
    if not pids:
        pid_of(None)  # empty trace still names its (single) process
    events.sort(key=lambda event: (event["ts"], event["tid"]))
    metadata: List[Dict[str, object]] = []
    for port, pid in sorted(pids.items(),
                            key=lambda item: item[1]):
        name = (process_name if port is None
                else f"{process_name} [port {port}]")
        metadata.append({
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": name},
        })
    for (port, name), tid in sorted(track_ids.items(),
                                    key=lambda item: item[1]):
        pid = pids.get(port)
        if pid is None:
            continue  # track pre-registered but never used
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": str(name)},
        })
        metadata.append({
            "name": "thread_sort_index", "ph": "M", "pid": pid,
            "tid": tid, "args": {"sort_index": tid},
        })
    return {"traceEvents": metadata + events,
            "displayTimeUnit": "ms"}


def write_perfetto(path, analysis: TraceAnalysis,
                   process_name: str = "pieo-sim") -> int:
    """Write the Perfetto JSON for one analyzed run; returns the number
    of trace events written (metadata excluded)."""
    trace = perfetto_trace(analysis, process_name=process_name)
    with open(path, "w") as handle:
        json.dump(trace, handle, separators=(",", ":"))
        handle.write("\n")
    return sum(1 for event in trace["traceEvents"]
               if event.get("ph") != "M")


def flow_report_json(analysis: TraceAnalysis,
                     starvation_threshold: Optional[float] = None,
                     ) -> Dict[str, object]:
    """Machine-readable per-flow report (the CI artifact)."""
    reports = analysis.flows(starvation_threshold=starvation_threshold)
    return {
        "flows": {str(flow_id): report.to_dict()
                  for flow_id, report in sorted(
                      reports.items(), key=lambda item: str(item[0]))},
        "packets": len(analysis.timelines),
        "issues": [str(issue) for issue in analysis.audit()],
    }
