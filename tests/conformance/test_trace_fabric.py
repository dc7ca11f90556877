"""check_trace on multi-switch (fabric) traces: the universal
invariants — conservation, per-flow FIFO, link non-overlap — must hold
independently at every hop, with one report per (run, switch)."""

import json

from repro.conformance.__main__ import main
from repro.conformance.runner import check_trace
from repro.net import Fabric
from repro.net.topology import leaf_spine
from repro.obs import Tracer
from repro.sim.packet import MTU_BYTES, reset_packet_ids


def _write_fabric_trace(path):
    reset_packet_ids(0)
    tracer = Tracer()
    fabric = Fabric(leaf_spine(leaves=2, spines=2, hosts_per_leaf=2),
                    tracer=tracer)
    fabric.open_flow("h0", "h3", 8 * MTU_BYTES)
    fabric.open_flow("h2", "h0", 4 * MTU_BYTES)
    fabric.sim.run()
    with open(path, "w") as handle:
        for event in tracer.events:
            handle.write(event.to_json() + "\n")
    return path


def test_fabric_trace_one_report_per_switch(tmp_path):
    path = _write_fabric_trace(tmp_path / "fabric.jsonl")
    reports = check_trace(str(path))
    assert all(report.passed for report in reports)
    titles = [report.algorithm for report in reports]
    # Each traversed hop gets its own labelled report.
    for hop in ("[h0]", "[l0]", "[l1]", "[h2]"):
        assert any(hop in title for title in titles)
    # Every report ran the full universal checker set.
    for report in reports:
        checkers = {outcome.checker for outcome in report.outcomes}
        assert "conservation" in checkers
        assert "per-flow-fifo" in checkers


def test_fabric_trace_cli_passes(tmp_path, capsys):
    path = _write_fabric_trace(tmp_path / "fabric.jsonl")
    assert main(["check", "--trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "[l0]" in out


def test_corrupted_hop_fails_only_that_switch(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write_fabric_trace(path)
    # Append a FIFO violation confined to l0's track: the flow's two
    # packets depart in the opposite of their arrival order.
    with open(path, "a") as handle:
        for packet_id, time in ((1000001, 9.0), (1000002, 9.1)):
            handle.write(json.dumps(
                {"t": time, "kind": "arrival", "flow_id": "bad",
                 "size_bytes": 10, "packet_id": packet_id,
                 "switch": "l0"}) + "\n")
        for packet_id, time in ((1000002, 9.2), (1000001, 9.3)):
            handle.write(json.dumps(
                {"t": time, "kind": "departure", "flow_id": "bad",
                 "size_bytes": 10, "packet_id": packet_id,
                 "finish": time + 0.01, "switch": "l0"}) + "\n")
    reports = check_trace(str(path))
    failed = [report for report in reports if not report.passed]
    assert failed
    assert all("[l0]" in report.algorithm for report in failed)
    passed_titles = [report.algorithm for report in reports
                     if report.passed]
    assert any("[l1]" in title for title in passed_titles)
