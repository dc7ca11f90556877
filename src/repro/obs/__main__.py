"""CLI: offline trace analysis and exporters.

Usage::

    python -m repro.obs summarize trace.jsonl
    python -m repro.obs flows trace.jsonl --starvation-ms 1.0
    python -m repro.obs flows trace.jsonl --costs opcounters.json
    python -m repro.obs timeline trace.jsonl --flow n6.f2 --limit 20
    python -m repro.obs audit trace.jsonl
    python -m repro.obs export trace.jsonl --perfetto out.json \\
        --report flows.json
    python -m repro.obs export trace.jsonl --metrics-json m.json \\
        --prometheus m.prom

``trace.jsonl`` is a ``--trace`` stream from ``python -m
repro.experiments`` (or any :meth:`Tracer.write_jsonl` export).  Sweep
experiments delimit their runs with ``mark`` events; every command
analyzes each run separately (``--run N`` selects one).  Multi-switch
(fabric) traces carry a ``switch`` label per event: each switch's
track is analyzed independently (a packet appears once per hop, so a
whole-run analysis would be nonsense), ``summarize`` prints a
per-switch block (traffic, drops by reason, hop residence), and
``--switch NAME`` narrows any command to one switch.  ``audit``
exits non-zero when the trace is truncated, corrupted, or violates
packet conservation/ordering.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.obs.analyze import (Run, TraceAnalysis, split_runs,
                               switch_analyses)
from repro.obs.export import (flow_report_json, perfetto_trace,
                              prometheus_from_snapshot, write_perfetto)
from repro.obs.trace import read_jsonl

#: One run's analyses: ``(switch_label, analysis)`` per switch track
#: (single-switch traces have exactly one ``(None, analysis)`` entry).
Tracks = List[Tuple[Optional[str], TraceAnalysis]]


def _us(seconds: Optional[float]) -> float:
    return round((seconds or 0.0) * 1e6, 3)


def _load_runs(args) -> List[Tuple[Run, Tracks]]:
    runs = split_runs(read_jsonl(args.trace))
    if not runs:
        return []
    if args.run is not None:
        if not 0 <= args.run < len(runs):
            raise IndexError(
                f"--run {args.run} out of range; trace has "
                f"{len(runs)} run(s)")
        runs = [runs[args.run]]
    wanted = getattr(args, "switch", None)
    result: List[Tuple[Run, Tracks]] = []
    for run in runs:
        if not run.events:
            continue
        tracks = switch_analyses(run.events)
        if wanted is not None:
            tracks = [(switch, analysis) for switch, analysis in tracks
                      if switch == wanted]
            if not tracks:
                raise ValueError(
                    f"run {run.title!r} has no switch track "
                    f"{wanted!r}")
        result.append((run, tracks))
    return result


def _track_title(run: Run, switch: Optional[str]) -> str:
    return run.title if switch is None else f"{run.title} [{switch}]"


def _flow_table(title: str, analysis: TraceAnalysis,
                starvation_threshold: Optional[float],
                percentiles: bool):
    from repro.experiments.runner import Table
    if percentiles:
        headers = ["flow", "pkts", "drops", "gbps", "p50_us", "p90_us",
                   "p99_us", "p999_us", "queue_us", "elig_us", "ser_us",
                   "flags"]
    else:
        headers = ["flow", "pkts", "gbps", "p50_us", "p99_us",
                   "queue_us", "elig_us", "ser_us", "e2e_us"]
    table = Table(title=f"{title}: per-flow latency attribution",
                  headers=headers)
    reports = analysis.flows(starvation_threshold=starvation_threshold)
    for flow_id, report in sorted(reports.items(),
                                  key=lambda item: str(item[0])):
        if report.packets == 0 and report.drops == 0:
            continue
        flags = "".join((
            "S" if report.starved else "",
            "~" if not report.eligibility_exact else ""))
        if percentiles:
            table.add_row(
                str(flow_id), report.packets, report.drops,
                round(report.throughput_bps / 1e9, 4),
                _us(report.p50), _us(report.p90), _us(report.p99),
                _us(report.p999), _us(report.mean_queueing),
                _us(report.mean_eligibility),
                _us(report.mean_serialization), flags or "-")
        else:
            table.add_row(
                str(flow_id), report.packets,
                round(report.throughput_bps / 1e9, 4),
                _us(report.p50), _us(report.p99),
                _us(report.mean_queueing),
                _us(report.mean_eligibility),
                _us(report.mean_serialization),
                _us(report.mean_latency))
    table.add_note("mean queue_us + elig_us + ser_us = mean e2e "
                   "latency; '~' marks flows whose eligibility wait is "
                   "a virtual-time upper bound, 'S' starved flows.")
    return table


def _switch_block(switch: str, analysis: TraceAnalysis) -> str:
    """One per-switch summary line: traffic totals, drops by reason,
    and hop residence (arrival at the switch to wire-out)."""
    arrived = delivered = dropped = 0
    reasons: dict = {}
    residences = []
    for timeline in analysis.timelines:
        if timeline.arrival_t is not None:
            arrived += 1
        if timeline.delivered:
            delivered += 1
            if timeline.arrival_t is not None:
                residences.append(timeline.depart_end
                                  - timeline.arrival_t)
        if timeline.dropped:
            dropped += 1
            reason = timeline.drop_reason or "(unspecified)"
            reasons[reason] = reasons.get(reason, 0) + 1
    parts = [f"   switch {switch}: {arrived} arrived, "
             f"{delivered} delivered, {dropped} dropped"]
    if reasons:
        parts.append(" [" + ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(reasons.items())) + "]")
    if residences:
        mean = sum(residences) / len(residences)
        parts.append(f", residence mean {_us(mean)}us "
                     f"max {_us(max(residences))}us")
    return "".join(parts)


def _cmd_summarize(args) -> int:
    exit_code = 0
    for run, tracks in _load_runs(args):
        delivered = sum(1 for _, analysis in tracks
                        for timeline in analysis.timelines
                        if timeline.delivered)
        dropped = sum(1 for _, analysis in tracks
                      for timeline in analysis.timelines
                      if timeline.dropped)
        t_min = min((analysis.t_min for _, analysis in tracks
                     if analysis.t_min is not None), default=0.0)
        t_max = max((analysis.t_max for _, analysis in tracks
                     if analysis.t_max is not None), default=0.0)
        span = t_max - t_min
        print(f"== {run.title}: {len(run.events)} events, "
              f"{delivered} delivered, {dropped} dropped, "
              f"span {span * 1e3:.3f} ms")
        for switch, analysis in tracks:
            if switch is not None:
                print(_switch_block(switch, analysis))
        if len(tracks) == 1:
            analysis = tracks[0][1]
            ports = analysis.port_summary()
            if any(port is not None for port in ports):
                for port, stats in sorted(
                        ports.items(), key=lambda item: str(item[0])):
                    label = "(unlabelled)" if port is None \
                        else f"port {port}"
                    reasons = ", ".join(
                        f"{reason}={count}" for reason, count in
                        sorted(stats["drop_reasons"].items()))
                    suffix = f" [{reasons}]" if reasons else ""
                    print(f"   {label}: {stats['arrivals']} arrived, "
                          f"{stats['delivered']} delivered, "
                          f"{stats['drops']} dropped, "
                          f"{stats['throughput_bps'] / 1e9:.4f} "
                          f"gbps{suffix}")
            table = _flow_table(_track_title(run, tracks[0][0]),
                                analysis, None, percentiles=False)
            if table.rows:
                print(table.to_text())
        errors = [(switch, issue) for switch, analysis in tracks
                  for issue in analysis.audit()
                  if issue.severity == "error"]
        for switch, issue in errors:
            prefix = f"[{switch}] " if switch is not None else ""
            print(f"{prefix}{issue}", file=sys.stderr)
        if errors:
            exit_code = 1
        print()
    return exit_code


def _cmd_flows(args) -> int:
    threshold = (args.starvation_ms / 1e3
                 if args.starvation_ms is not None else None)
    for run, tracks in _load_runs(args):
        for switch, analysis in tracks:
            title = _track_title(run, switch)
            print(_flow_table(title, analysis, threshold,
                              percentiles=True).to_text())
            if args.costs:
                with open(args.costs) as handle:
                    snapshot = json.load(handle)
                from repro.experiments.runner import Table
                cost = Table(
                    title=f"{title}: hardware-cost attribution "
                          "(op-proportional share)",
                    headers=["flow", "ops", "share_pct", "cycles",
                             "sram_rd", "sram_wr", "comparators"])
                attribution = analysis.cost_attribution(snapshot)
                for flow_id, shares in sorted(
                        attribution.items(),
                        key=lambda item: str(item[0])):
                    cost.add_row(
                        str(flow_id), shares["ops"],
                        round(shares["share"] * 100, 2),
                        round(shares["cycles"], 1),
                        round(shares["sram_sublist_reads"], 1),
                        round(shares["sram_sublist_writes"], 1),
                        round(shares["comparator_activations"], 1))
                print(cost.to_text())
            print()
    return 0


def _cmd_timeline(args) -> int:
    for run, tracks in _load_runs(args):
        for switch, analysis in tracks:
            _print_timelines(_track_title(run, switch), analysis, args)
    return 0


def _print_timelines(title: str, analysis: TraceAnalysis,
                     args) -> None:
        print(f"== {title}")
        shown = 0
        for timeline in analysis.timelines:
            if args.flow is not None \
                    and str(timeline.flow_id) != args.flow:
                continue
            if shown >= args.limit:
                print(f"... ({args.limit} shown; raise --limit)")
                break
            shown += 1
            if timeline.dropped:
                print(f"pkt {timeline.packet_id} "
                      f"[{timeline.flow_id}] DROPPED at "
                      f"t={timeline.drop_t} ({timeline.drop_reason})")
                continue
            if not timeline.delivered:
                print(f"pkt {timeline.packet_id} "
                      f"[{timeline.flow_id}] in flight "
                      f"(arrived t={timeline.arrival_t})")
                continue
            exact = "" if timeline.eligibility_exact else " (~bound)"
            print(
                f"pkt {timeline.packet_id} [{timeline.flow_id}] "
                f"arrive={_us(timeline.arrival_t)}us "
                f"tx={_us(timeline.depart_start)}us "
                f"done={_us(timeline.depart_end)}us | "
                f"e2e={_us(timeline.latency)}us = "
                f"queue {_us(timeline.queueing_wait)}us + "
                f"elig {_us(timeline.eligibility_wait)}us{exact} + "
                f"ser {_us(timeline.serialization)}us")
        print()


def _cmd_audit(args) -> int:
    exit_code = 0
    for run, tracks in _load_runs(args):
        issues = [(switch, issue) for switch, analysis in tracks
                  for issue in analysis.audit()]
        errors = [issue for _, issue in issues
                  if issue.severity == "error"]
        status = "FAIL" if errors else "ok"
        print(f"== {run.title}: {status} "
              f"({len(errors)} error(s), "
              f"{len(issues) - len(errors)} warning(s))")
        for switch, issue in issues:
            prefix = f"[{switch}] " if switch is not None else ""
            print(f"  {prefix}{issue}")
        if errors:
            exit_code = 1
    return exit_code


def _write_perfetto_multi(path: str, run: Run, tracks: Tracks) -> int:
    """Merge per-switch Perfetto traces into one file: each switch
    becomes its own process group (pid range), so the fabric renders
    as one timeline with a track group per hop."""
    merged: List[dict] = []
    pid_base = 0
    for switch, analysis in tracks:
        trace = perfetto_trace(analysis,
                               process_name=_track_title(run, switch))
        max_pid = 0
        for event in trace["traceEvents"]:
            pid = event.get("pid")
            if isinstance(pid, int):
                event["pid"] = pid + pid_base
                max_pid = max(max_pid, pid)
        merged.extend(trace["traceEvents"])
        pid_base += max_pid
    with open(path, "w") as handle:
        json.dump({"traceEvents": merged, "displayTimeUnit": "ms"},
                  handle, separators=(",", ":"))
        handle.write("\n")
    return sum(1 for event in merged if event.get("ph") != "M")


def _cmd_export(args) -> int:
    wrote_anything = False
    if args.perfetto or args.report:
        runs = _load_runs(args)
        if not runs:
            print("trace has no events to export", file=sys.stderr)
            return 1
        # Export the selected run (default: the last, typically the
        # final sweep point — pass --run to pick another).
        run, tracks = runs[-1]
        if args.perfetto:
            if len(tracks) == 1:
                count = write_perfetto(
                    args.perfetto, tracks[0][1],
                    process_name=_track_title(run, tracks[0][0]))
            else:
                count = _write_perfetto_multi(args.perfetto, run,
                                              tracks)
            print(f"perfetto: {count} events ({run.title}) -> "
                  f"{args.perfetto}", file=sys.stderr)
            wrote_anything = True
        if args.report:
            if len(tracks) == 1:
                report = flow_report_json(tracks[0][1])
                flow_count = len(report["flows"])
            else:
                report = {"switches": {
                    (switch if switch is not None
                     else "(unlabelled)"): flow_report_json(analysis)
                    for switch, analysis in tracks}}
                flow_count = sum(
                    len(entry["flows"])
                    for entry in report["switches"].values())
            with open(args.report, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"flow report: {flow_count} flows -> "
                  f"{args.report}", file=sys.stderr)
            wrote_anything = True
    if args.prometheus:
        if not args.metrics_json:
            print("--prometheus needs --metrics-json FILE (a "
                  "--metrics snapshot)", file=sys.stderr)
            return 2
        with open(args.metrics_json) as handle:
            snapshot = json.load(handle)
        with open(args.prometheus, "w") as handle:
            handle.write(prometheus_from_snapshot(snapshot))
        print(f"prometheus: {args.metrics_json} -> {args.prometheus}",
              file=sys.stderr)
        wrote_anything = True
    if not wrote_anything:
        print("nothing to export; pass --perfetto, --report, or "
              "--prometheus", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze and export structured trace files.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(command):
        command.add_argument("trace", help="JSONL trace file "
                             "(from --trace or Tracer.write_jsonl)")
        command.add_argument("--run", type=int, default=None,
                             metavar="N",
                             help="analyze only the N-th "
                             "mark-delimited run (0-based)")
        command.add_argument("--switch", default=None, metavar="NAME",
                             help="restrict analysis to one switch "
                             "track of a multi-switch (fabric) trace")

    summarize = sub.add_parser(
        "summarize", help="per-run event counts and per-flow "
        "p50/p99 latency attribution")
    add_common(summarize)
    summarize.set_defaults(handler=_cmd_summarize)

    flows = sub.add_parser(
        "flows", help="detailed per-flow report: full percentiles, "
        "starvation, hardware-cost attribution")
    add_common(flows)
    flows.add_argument("--starvation-ms", type=float, default=None,
                       metavar="MS",
                       help="flag flows backlogged but unserved for "
                       "longer than MS milliseconds")
    flows.add_argument("--costs", default=None, metavar="FILE",
                       help="OpCounters snapshot JSON to attribute "
                       "per-flow hardware cost shares")
    flows.set_defaults(handler=_cmd_flows)

    timeline = sub.add_parser(
        "timeline", help="per-packet lifecycle lines")
    add_common(timeline)
    timeline.add_argument("--flow", default=None,
                          help="restrict to one flow id")
    timeline.add_argument("--limit", type=int, default=50,
                          help="max packets to print (default 50)")
    timeline.set_defaults(handler=_cmd_timeline)

    audit = sub.add_parser(
        "audit", help="conservation/ordering audit; non-zero exit on "
        "malformed traces")
    add_common(audit)
    audit.set_defaults(handler=_cmd_audit)

    export = sub.add_parser(
        "export", help="write Perfetto JSON, per-flow report JSON, "
        "and/or Prometheus text")
    add_common(export)
    export.add_argument("--perfetto", default=None, metavar="FILE",
                        help="write Chrome/Perfetto trace_event JSON")
    export.add_argument("--report", default=None, metavar="FILE",
                        help="write the per-flow report as JSON")
    export.add_argument("--prometheus", default=None, metavar="FILE",
                        help="write Prometheus text exposition "
                        "(requires --metrics-json)")
    export.add_argument("--metrics-json", default=None, metavar="FILE",
                        help="MetricsRegistry snapshot JSON "
                        "(a --metrics file)")
    export.set_defaults(handler=_cmd_export)
    return parser


def main(argv) -> int:
    args = build_parser().parse_args(argv[1:])
    try:
        return args.handler(args)
    except FileNotFoundError as error:
        print(error, file=sys.stderr)
        return 2
    except (ValueError, IndexError) as error:
        print(error, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into e.g. `head`; exit quietly like other
        # well-behaved unix filters.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
