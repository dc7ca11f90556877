"""CLI tests for ``python -m repro.obs``."""

import json

import pytest

from repro.obs import Tracer
from repro.obs.__main__ import main


def _write_trace(path, corrupt=False):
    tracer = Tracer()
    tracer.mark(0.0, "test.run", target=4.0)
    tracer.arrival(0.0, "n0.f0", 1500, packet_id=1)
    tracer.enqueue(0.0, "n0.f0", rank=0.0, send_time=2e-4,
                   eligible=False)
    tracer.dequeue(3e-4, "n0.f0", rank=0.0, send_time=2e-4,
                   eligible_at=2e-4)
    tracer.departure(3e-4, "n0.f0", 1500, packet_id=1, finish=3.5e-4)
    tracer.write_jsonl(path)
    if corrupt:
        with open(path, "a") as handle:
            handle.write('{"t": 4.0, "ki\n')
    return path


def test_summarize_prints_attribution(tmp_path, capsys):
    path = _write_trace(tmp_path / "t.jsonl")
    assert main(["obs", "summarize", str(path)]) == 0
    out = capsys.readouterr().out
    assert "test.run [target=4.0]" in out
    assert "1 delivered" in out
    assert "n0.f0" in out
    # queue + elig + ser = e2e, all in microseconds.
    assert "100" in out  # queueing (100 us)
    assert "200" in out  # eligibility (200 us)
    assert "50" in out   # serialization (50 us)
    assert "350" in out  # end-to-end (350 us)


def test_flows_and_timeline_commands(tmp_path, capsys):
    path = _write_trace(tmp_path / "t.jsonl")
    assert main(["obs", "flows", str(path)]) == 0
    assert "p999_us" in capsys.readouterr().out
    assert main(["obs", "timeline", str(path), "--flow", "n0.f0"]) == 0
    out = capsys.readouterr().out
    assert "pkt 1 [n0.f0]" in out and "elig 200.0us" in out


def test_audit_ok_on_clean_trace(tmp_path, capsys):
    path = _write_trace(tmp_path / "t.jsonl")
    assert main(["obs", "audit", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_audit_fails_on_corrupt_trace(tmp_path, capsys):
    path = _write_trace(tmp_path / "t.jsonl", corrupt=True)
    assert main(["obs", "audit", str(path)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_audit_fails_on_truncated_trace(tmp_path, capsys):
    """A trace whose arrivals were ring-evicted (departure without
    arrival) must fail the audit loudly."""
    tracer = Tracer()
    tracer.departure(1.0, "f0", 1500, packet_id=9, finish=1.5,
                     arrival_t=0.5)
    path = tmp_path / "trunc.jsonl"
    tracer.write_jsonl(path)
    assert main(["obs", "audit", str(path)]) == 1
    assert "error" in capsys.readouterr().out


def test_audit_missing_file_exits_2(tmp_path, capsys):
    assert main(["obs", "audit", str(tmp_path / "nope.jsonl")]) == 2


def test_run_selector_bounds(tmp_path, capsys):
    path = _write_trace(tmp_path / "t.jsonl")
    assert main(["obs", "summarize", str(path), "--run", "5"]) == 1
    assert "out of range" in capsys.readouterr().err
    assert main(["obs", "summarize", str(path), "--run", "0"]) == 0


def test_export_writes_all_artifacts(tmp_path, capsys):
    path = _write_trace(tmp_path / "t.jsonl")
    perfetto = tmp_path / "p.json"
    report = tmp_path / "r.json"
    metrics = tmp_path / "m.json"
    metrics.write_text(json.dumps(
        {"counters": {"engine.arrivals": 1}}))
    prom = tmp_path / "m.prom"
    assert main(["obs", "export", str(path),
                 "--perfetto", str(perfetto), "--report", str(report),
                 "--metrics-json", str(metrics),
                 "--prometheus", str(prom)]) == 0
    trace = json.loads(perfetto.read_text())
    assert any(event["ph"] == "X" for event in trace["traceEvents"])
    flows = json.loads(report.read_text())
    assert "n0.f0" in flows["flows"]
    assert "repro_engine_arrivals_total 1" in prom.read_text()


def test_export_requires_some_output(tmp_path):
    path = _write_trace(tmp_path / "t.jsonl")
    assert main(["obs", "export", str(path)]) == 2


def test_export_prometheus_requires_metrics_json(tmp_path):
    path = _write_trace(tmp_path / "t.jsonl")
    assert main(["obs", "export", str(path),
                 "--prometheus", str(tmp_path / "m.prom")]) == 2


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["obs", "explode"])
