"""Per-switch trace splitting (fabric traces) and the obs CLI views
built on it: summarize/audit/flows/export with ``switch`` labels and
the ``--switch`` filter."""

import json

from repro.net import Fabric
from repro.net.topology import leaf_spine
from repro.obs import Tracer
from repro.obs.__main__ import main
from repro.obs.analyze import (split_switches, switch_analyses)
from repro.sim.packet import MTU_BYTES, reset_packet_ids

SWITCHES = ("h0", "h1", "h2", "h3", "l0", "l1", "sp0", "sp1")


def _fabric_events():
    reset_packet_ids(0)
    tracer = Tracer()
    fabric = Fabric(leaf_spine(leaves=2, spines=2, hosts_per_leaf=2),
                    tracer=tracer)
    fabric.open_flow("h0", "h3", 6 * MTU_BYTES)
    fabric.open_flow("h1", "h2", 4 * MTU_BYTES)
    fabric.sim.run()
    return [json.loads(event.to_json()) for event in tracer.events]


def _write_fabric_trace(path):
    events = _fabric_events()
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")
    return path


class TestSplitSwitches:
    def test_partition_preserves_order_and_labels(self):
        events = _fabric_events()
        buckets = split_switches(events)
        # Every event lands in the bucket its label names.
        for switch, bucket in buckets.items():
            assert all(record.get("switch") == switch
                       for record in bucket)
        assert sum(len(b) for b in buckets.values()) == len(events)
        # Order within a bucket is trace (input) order.
        position = {id(record): index
                    for index, record in enumerate(events)}
        for bucket in buckets.values():
            indices = [position[id(record)] for record in bucket]
            assert indices == sorted(indices)

    def test_unlabelled_events_bucket_under_none(self):
        events = [{"t": 0.0, "kind": "mark", "label": "x"},
                  {"t": 1.0, "kind": "arrival", "flow_id": "f",
                   "size_bytes": 10, "switch": "s0"}]
        buckets = split_switches(events)
        assert set(buckets) == {None, "s0"}

    def test_switch_analyses_one_track_per_hop(self):
        tracks = switch_analyses(_fabric_events())
        names = [switch for switch, _ in tracks]
        # Hosts the flows traversed plus the switch tiers; idle hosts
        # still appear (their NIC traced nothing, so they may not).
        assert set(names) <= set(SWITCHES)
        for expected in ("h0", "h1", "l0", "l1"):
            assert expected in names
        # Every track independently satisfies the packet audit.
        for switch, analysis in tracks:
            assert analysis.audit() == [], switch

    def test_mark_only_unlabelled_bucket_is_dropped(self):
        events = [{"t": 0.0, "kind": "mark", "label": "sweep"}]
        events += _fabric_events()
        names = [switch for switch, _ in switch_analyses(events)]
        assert None not in names

    def test_unlabelled_packets_keep_their_track(self):
        events = [{"t": 0.0, "kind": "arrival", "flow_id": "f",
                   "size_bytes": 10},
                  {"t": 1.0, "kind": "arrival", "flow_id": "g",
                   "size_bytes": 10, "switch": "s0"}]
        tracks = switch_analyses(events)
        assert [switch for switch, _ in tracks] == [None, "s0"]

    def test_single_switch_trace_is_one_track(self):
        events = [{"t": 0.0, "kind": "arrival", "flow_id": "f",
                   "size_bytes": 10}]
        tracks = switch_analyses(events)
        assert len(tracks) == 1 and tracks[0][0] is None


class TestCli:
    def test_summarize_prints_per_switch_blocks(self, tmp_path,
                                                capsys):
        path = _write_fabric_trace(tmp_path / "fabric.jsonl")
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        for switch in ("h0", "l0", "l1"):
            assert f"switch {switch}:" in out
        assert "residence mean" in out

    def test_switch_filter_narrows_to_one_track(self, tmp_path,
                                                capsys):
        path = _write_fabric_trace(tmp_path / "fabric.jsonl")
        assert main(["obs", "summarize", str(path),
                     "--switch", "l0"]) == 0
        out = capsys.readouterr().out
        assert "[l0]" in out
        assert "switch l1:" not in out

    def test_switch_filter_unknown_name_errors(self, tmp_path,
                                               capsys):
        path = _write_fabric_trace(tmp_path / "fabric.jsonl")
        assert main(["obs", "summarize", str(path),
                     "--switch", "ghost"]) == 1

    def test_audit_passes_per_switch(self, tmp_path, capsys):
        path = _write_fabric_trace(tmp_path / "fabric.jsonl")
        assert main(["obs", "audit", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_audit_attributes_errors_to_switch(self, tmp_path,
                                               capsys):
        # Corrupt one switch's track: a departure with no arrival.
        path = tmp_path / "bad.jsonl"
        events = _fabric_events()
        events.append({"t": 9.0, "kind": "departure",
                       "flow_id": "ghost", "size_bytes": 10,
                       "packet_id": 10 ** 9, "finish": 9.1,
                       "switch": "l0"})
        with open(path, "w") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        assert main(["obs", "audit", str(path)]) == 1
        assert "[l0]" in capsys.readouterr().out

    def test_flows_lists_each_switch_track(self, tmp_path, capsys):
        path = _write_fabric_trace(tmp_path / "fabric.jsonl")
        assert main(["obs", "flows", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[h0]" in out and "[l0]" in out

    def test_export_merges_switch_tracks(self, tmp_path, capsys):
        path = _write_fabric_trace(tmp_path / "fabric.jsonl")
        perfetto = tmp_path / "trace.perfetto.json"
        report = tmp_path / "report.json"
        assert main(["obs", "export", str(path),
                     "--perfetto", str(perfetto),
                     "--report", str(report)]) == 0
        with open(perfetto) as handle:
            trace = json.load(handle)
        # One process (pid) per switch track, disjoint pids.
        pids = {event["pid"] for event in trace["traceEvents"]}
        assert len(pids) >= 4
        names = {event["args"]["name"]
                 for event in trace["traceEvents"]
                 if event.get("ph") == "M"
                 and event.get("name") == "process_name"}
        assert any("[l0]" in name for name in names)
        with open(report) as handle:
            flow_report = json.load(handle)
        assert "switches" in flow_report
        assert "l0" in flow_report["switches"]

    def test_export_single_track_report_unchanged(self, tmp_path):
        # A single-switch trace keeps the flat (non-nested) report.
        tracer = Tracer()
        tracer.arrival(0.0, "f", 1500, packet_id=1)
        tracer.departure(1e-4, "f", 1500, packet_id=1, finish=2e-4)
        path = tmp_path / "flat.jsonl"
        tracer.write_jsonl(path)
        report = tmp_path / "report.json"
        assert main(["obs", "export", str(path),
                     "--report", str(report)]) == 0
        with open(report) as handle:
            flow_report = json.load(handle)
        assert "switches" not in flow_report
