"""Python calls per packet on the paper's hierarchy, counted exactly.

The Section 6.3 tree (Token Bucket over WF2Q+) takes two scheduling
decisions per packet, and each should reach the ordered list in one
hop.  Under ``sys.setprofile`` every Python frame entered while an
untraced ``run_hierarchy(default_node_rates(), duration=0.002)`` runs
is counted, with the cyclic collector paused so finalizers of
unrelated garbage cannot run inside the count.  Subtracting a run of
half the length leaves the steady-state cost per departed packet:
building the tree and priming the sources cancel out.  The count is
exact, so the guard is deterministic.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.experiments.hier_common import default_node_rates, run_hierarchy
from repro.sim.packet import reset_packet_ids

#: Python calls per departed packet, all layers together (about 60 when
#: every list operation reaches the backend in one hop).
CALLS_PER_PACKET_BUDGET = 64


def _calls_and_packets(duration: float, flows_per_node: int) -> tuple:
    reset_packet_ids(0)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.disable()
    sys.setprofile(count)
    try:
        run = run_hierarchy(default_node_rates(), duration=duration,
                            flows_per_node=flows_per_node)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, len(run.engine.recorder)


def _calls_per_packet(flows_per_node: int) -> float:
    calls, packets = _calls_and_packets(0.002, flows_per_node)
    half_calls, half_packets = _calls_and_packets(0.001, flows_per_node)
    return (calls - half_calls) / (packets - half_packets)


@pytest.fixture(scope="module")
def per_packet() -> dict:
    return {flows: _calls_per_packet(flows) for flows in (10, 40)}


def test_hierarchy_calls_per_packet_within_budget(per_packet):
    assert per_packet[10] <= CALLS_PER_PACKET_BUDGET


def test_calls_per_packet_do_not_grow_with_flows(per_packet):
    """Four times the flows per node costs no extra call per packet: no
    step of a decision scans a node's children."""
    assert per_packet[40] == pytest.approx(per_packet[10], abs=0.05)
