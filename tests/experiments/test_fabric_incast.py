"""Two-tier fabric incast: the single-switch cross-check.

The fabric experiment must reproduce the single-switch incast's shape
from multi-switch parts: hot-link goodput pinned at ~10 Gbps, drops
monotone in buffer size, all loss at the ToR's receiver port, none on
the 40 Gbps trunk."""

import io

from repro.experiments.__main__ import main
from repro.experiments.fabric_incast import (ACCESS_GBPS, RECEIVER,
                                             SENDER_GBPS, SENDERS,
                                             fabric_incast_table)
from repro.experiments.incast import incast_table
from repro.obs import Tracer

DURATION = 0.001
SWEEP = (8, 64)


def _run(*argv):
    return main(["prog", *argv])


def _table(jobs=1, **kwargs):
    sink = io.StringIO()
    tracer = Tracer(capacity=0, sink=sink)
    table = fabric_incast_table(buffer_kib_sweep=SWEEP,
                                duration=DURATION, tracer=tracer,
                                jobs=jobs, **kwargs)
    return table.to_text(), sink.getvalue()


def test_sharded_run_matches_sequential_bytes():
    sequential = _table(jobs=1)
    assert _table(jobs=2) == sequential
    assert sequential[1].count('"kind":"mark"') == len(SWEEP)


def test_matches_single_switch_incast_shape():
    """The cross-check the module docstring promises, against the
    actual single-switch experiment run at the same sweep."""
    fabric = fabric_incast_table(buffer_kib_sweep=(8, 32, 128),
                                 duration=DURATION)
    single = incast_table(buffer_kib_sweep=(8, 32, 128),
                          duration=DURATION)
    # Offered load identical by construction.
    assert SENDERS * SENDER_GBPS == 2 * ACCESS_GBPS
    fabric_drops = [row[3] for row in fabric.rows]
    single_drops = [row[3] for row in single.rows]
    # Both lose packets at the small buffer and recover monotonically.
    assert fabric_drops[0] > 0 and single_drops[0] > 0
    assert sorted(fabric_drops, reverse=True) == fabric_drops
    assert sorted(single_drops, reverse=True) == single_drops
    for row in fabric.rows:
        # Hot link saturated: goodput within 15% of line rate.
        assert row[6] > 0.85 * ACCESS_GBPS
        # Every drop is charged to the ToR's receiver port...
        assert row[4] == row[3]
        # ...and the trunk tier never drops.
        assert row[5] == 0


def test_cli_fabric_incast(capsys):
    assert _run("fabric-incast", "--duration", "0.0005",
                "--drop-policy", "longest-queue") == 0
    out = capsys.readouterr().out
    assert "Fabric incast" in out
    assert "policy=longest-queue" in out
    assert RECEIVER in out
