"""Multi-port incast experiment: sweep determinism, parameterisation,
and the CLI flags that drive it."""

import io

import pytest

from repro.experiments.incast import (DEFAULT_BUFFER_KIB, HOT_PORT,
                                      build_incast, incast_table)
from repro.experiments.__main__ import main
from repro.obs import Tracer, read_jsonl
from repro.sim.buffer import available_drop_policies
from repro.sim.events import Simulator
from repro.sim.packet import reset_packet_ids

DURATION = 0.001
SWEEP = (8, 32)


def _run(*argv):
    return main(["prog", *argv])


def _table(jobs=1, **kwargs):
    sink = io.StringIO()
    tracer = Tracer(capacity=0, sink=sink)
    table = incast_table(buffer_kib_sweep=SWEEP, duration=DURATION,
                         tracer=tracer, jobs=jobs, **kwargs)
    return table.to_text(), sink.getvalue()


def test_sharded_run_matches_sequential_bytes():
    sequential = _table(jobs=1)
    assert _table(jobs=2) == sequential
    # One mark per sweep point, regardless of sharding.
    assert sequential[1].count('"kind":"mark"') == len(SWEEP)


def test_small_buffer_drops_large_buffer_does_not():
    reset_packet_ids()
    # The hot backlog grows at ~10 Gbps, i.e. ~1.25 MB over the run —
    # 2 MiB rides it out, 4 KiB cannot.
    table = incast_table(buffer_kib_sweep=(4, 2048), duration=DURATION)
    rows = table.rows
    assert rows[0][3] > 0            # 4 KiB: drops
    assert rows[1][3] == 0           # 2 MiB: rides out the burst
    # Same offered load on both rows.
    assert rows[0][1] == rows[1][1]


def test_longest_queue_charges_drops_to_the_hot_port():
    reset_packet_ids()
    table = incast_table(buffer_kib_sweep=(32,), duration=DURATION,
                         drop_policy="longest-queue")
    row = table.rows[0]
    drops, hot_drops, evicted = row[3], row[4], row[5]
    assert drops > 0
    assert hot_drops == drops        # push-out lands on the hog
    assert evicted > 0


def test_ports_parameter_scales_the_topology():
    reset_packet_ids()
    two = incast_table(buffer_kib_sweep=(64,), ports=2,
                       duration=DURATION)
    reset_packet_ids()
    six = incast_table(buffer_kib_sweep=(64,), ports=6,
                       duration=DURATION)
    # 8 hot + 2 per cold port senders at the same per-sender rate.
    assert six.rows[0][1] > two.rows[0][1]
    assert "2-port" in two.title and "6-port" in six.title


def test_algorithm_parameter_reaches_the_port_schedulers():
    reset_packet_ids()
    table = incast_table(buffer_kib_sweep=(32,), algorithm="wfq",
                         duration=DURATION)
    assert "algorithm=wfq" in table.title
    assert table.rows[0][2] > 0


def test_conservation_assertion_guards_every_point():
    """build_incast + manual run must balance arrivals against
    departures, drops, and residue (the same check _incast_point
    asserts)."""
    reset_packet_ids()
    sim = Simulator()
    dataplane = build_incast(sim, buffer_bytes=16 * 1024,
                             duration=DURATION)
    sim.run_until(DURATION)
    conservation = dataplane.conservation()
    assert conservation["balanced"]
    assert conservation["arrivals"] == (
        conservation["departures"] + conservation["drops"]
        + conservation["residue"])
    assert conservation["drops"] > 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_incast_runs_and_prints_table(capsys):
    assert _run("incast", "--duration", "0.0005") == 0
    out = capsys.readouterr().out
    assert "Incast" in out
    for buffer_kib in DEFAULT_BUFFER_KIB:
        assert str(buffer_kib) in out


def test_cli_incast_flags_reach_the_experiment(capsys):
    assert _run("incast", "--duration", "0.0005", "--ports", "2",
                "--drop-policy", "red", "--algorithm", "wfq") == 0
    out = capsys.readouterr().out
    assert "2-port" in out
    assert "policy=red" in out
    assert "algorithm=wfq" in out


def test_cli_list_drop_policies(capsys):
    assert _run("--list-drop-policies") == 0
    out = capsys.readouterr().out
    for name in available_drop_policies():
        assert name in out


def test_cli_list_algorithms(capsys):
    assert _run("--list-algorithms") == 0
    out = capsys.readouterr().out
    assert "wf2q+" in out
    assert "drr" in out


def test_cli_unknown_drop_policy_returns_2(capsys):
    assert _run("incast", "--drop-policy", "coin-flip") == 2
    out = capsys.readouterr().out
    assert "coin-flip" in out
    assert "tail-drop" in out  # suggests registered names


def test_cli_unknown_algorithm_returns_2(capsys):
    assert _run("incast", "--algorithm", "magic") == 2
    assert "magic" in capsys.readouterr().out


def test_cli_invalid_ports_returns_2(capsys):
    assert _run("incast", "--ports", "0") == 2
    assert "--ports" in capsys.readouterr().out


def test_cli_traced_incast_carries_port_labels(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    assert _run("incast", "--duration", "0.0005",
                "--trace", str(trace_path)) == 0
    records = read_jsonl(trace_path)
    ports = {record.get("port") for record in records
             if record["kind"] == "drop"}
    assert HOT_PORT in ports
    marks = [record for record in records if record["kind"] == "mark"]
    assert len(marks) == len(DEFAULT_BUFFER_KIB)
    assert all(record["label"] == "incast.sweep" for record in marks)
