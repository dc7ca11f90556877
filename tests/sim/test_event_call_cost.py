"""Python calls per arrival on the event loop, counted exactly.

The incast run (four ports sharing one buffer, drain off because the
ports share a simulator) spends most of its frames on the glue around
the scheduler: posting kicks and listeners, firing them, and building
packets.  Under ``sys.setprofile`` every Python frame entered while an
untraced ``build_incast(..., drop_policy="longest-queue")`` run builds
and runs is counted, with the cyclic collector paused so finalizers of
unrelated garbage cannot run inside the count.  Subtracting a run of
half the length leaves the steady-state cost per dataplane arrival
(drops included): building the ports and starting the generators
cancel out.  The count is exact, so the guard is deterministic.
"""

from __future__ import annotations

import gc
import sys

from repro.experiments.incast import build_incast
from repro.sim.events import Simulator
from repro.sim.packet import reset_packet_ids

#: Python calls per arrival, all layers together (about 44 when events
#: carry no handle, dispatch pops the heap inline and a packet is built
#: in one frame; 63 before).
CALLS_PER_ARRIVAL_BUDGET = 48


def _profiled(work) -> int:
    """Python calls made while ``work()`` runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.disable()
    sys.setprofile(count)
    try:
        work()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def _incast_calls_and_arrivals(duration: float) -> tuple:
    reset_packet_ids(0)
    dataplanes = []

    def work():
        sim = Simulator()
        dataplanes.append(build_incast(sim, buffer_bytes=64 * 1024,
                                       drop_policy="longest-queue",
                                       duration=duration))
        sim.run_until(duration)

    calls = _profiled(work)
    return calls, dataplanes[0].conservation()["arrivals"]


def test_incast_calls_per_arrival_within_budget():
    calls, arrivals = _incast_calls_and_arrivals(0.002)
    half_calls, half_arrivals = _incast_calls_and_arrivals(0.001)
    per_arrival = (calls - half_calls) / (arrivals - half_arrivals)
    assert per_arrival <= CALLS_PER_ARRIVAL_BUDGET


def _run_until_calls(events: int) -> int:
    sim = Simulator()

    def noop():
        return None

    for index in range(events):
        sim.post(index * 1e-6, noop)
    calls = _profiled(lambda: sim.run_until(1.0))
    assert sim.events_fired == events
    return calls


def test_unobserved_run_until_costs_one_frame_per_event():
    """Each fired event costs its callback's frame and nothing else: no
    per-event ``step``/``pop``/``peek_time`` frame on an unobserved
    simulator."""
    small, large = _run_until_calls(1_000), _run_until_calls(3_000)
    assert large - small == 2_000
    assert small - 1_000 <= 4
