"""Unit tests for the invariant checkers.

Two kinds of evidence: hand-built traces where the expected violation
is constructed line by line, and real runs re-checked under a *wrong*
spec (e.g. strict priority judged as a fair queue) where the checker
must fire because the algorithm genuinely does not provide the bound.
"""

import pytest

from repro.conformance.checkers import CHECKERS, ConformanceRun
from repro.conformance.runner import (check_algorithm, check_run,
                                      run_scenario)
from repro.conformance.scenarios import make_scenario
from repro.obs.analyze import TraceAnalysis
from repro.obs.trace import Tracer
from repro.sched.spec import AlgorithmSpec

US = 1e-6


def _synthetic_run(events, spec=None, link_rate_bps=1e9):
    analysis = TraceAnalysis(events)
    return ConformanceRun(analysis=analysis,
                          spec=spec or AlgorithmSpec(),
                          link_rate_bps=link_rate_bps)


def _healthy_trace():
    """One flow, two packets, back to back, fully conservative."""
    tracer = Tracer()
    tracer.arrival(0.0, "a", 1500, packet_id=1)
    tracer.enqueue(0.0, "a", rank=0.0, send_time=0.0)
    tracer.dequeue(0.0, "a", rank=0.0, send_time=0.0)
    tracer.departure(0.0, "a", 1500, packet_id=1, finish=12 * US,
                     arrival_t=0.0)
    tracer.arrival(5 * US, "a", 1000, packet_id=2)
    tracer.enqueue(5 * US, "a", rank=1.0, send_time=5 * US)
    tracer.dequeue(12 * US, "a", rank=1.0, send_time=5 * US)
    tracer.departure(12 * US, "a", 1000, packet_id=2, finish=20 * US,
                     arrival_t=5 * US)
    return tracer.events


def test_universal_checkers_pass_on_healthy_trace():
    run = _synthetic_run(_healthy_trace())
    for name in ("conservation", "per-flow-fifo", "link-overlap",
                 "work-conservation"):
        assert CHECKERS[name](run) == [], name


def test_per_flow_fifo_catches_swapped_ids():
    # Both packets arrive at t=0 so swapping the departure ids is a
    # pure reordering (not a departure-before-arrival, which the
    # conservation audit owns).
    tracer = Tracer()
    tracer.arrival(0.0, "a", 1500, packet_id=1)
    tracer.arrival(0.0, "a", 1000, packet_id=2)
    tracer.enqueue(0.0, "a", rank=0.0, send_time=0.0)
    tracer.dequeue(0.0, "a", rank=0.0, send_time=0.0)
    tracer.departure(0.0, "a", 1500, packet_id=2, finish=12 * US,
                     arrival_t=0.0)
    tracer.enqueue(0.0, "a", rank=1.0, send_time=0.0)
    tracer.dequeue(12 * US, "a", rank=1.0, send_time=0.0)
    tracer.departure(12 * US, "a", 1000, packet_id=1, finish=20 * US,
                     arrival_t=0.0)
    run = _synthetic_run(tracer.events)
    assert CHECKERS["per-flow-fifo"](run)


def test_link_overlap_catches_overlapping_departures():
    tracer = Tracer()
    for pid, start in ((1, 0.0), (2, 6 * US)):  # 1500B takes 12us
        tracer.arrival(start, "a", 1500, packet_id=pid)
        tracer.enqueue(start, "a", rank=float(pid), send_time=start)
        tracer.dequeue(start, "a", rank=float(pid), send_time=start)
        tracer.departure(start, "a", 1500, packet_id=pid,
                         finish=start + 12 * US, arrival_t=start)
    run = _synthetic_run(tracer.events)
    assert CHECKERS["link-overlap"](run)


def test_work_conservation_catches_idle_with_eligible_backlog():
    tracer = Tracer()
    tracer.arrival(0.0, "a", 1500, packet_id=1)
    # Eligible from t=0 (send_time=0) but served only at t=50us: the
    # link idled 50us with work available.
    tracer.enqueue(0.0, "a", rank=0.0, send_time=0.0)
    tracer.dequeue(50 * US, "a", rank=0.0, send_time=0.0)
    tracer.departure(50 * US, "a", 1500, packet_id=1,
                     finish=62 * US, arrival_t=0.0)
    run = _synthetic_run(tracer.events)
    violations = CHECKERS["work-conservation"](run)
    assert violations
    assert "idle" in str(violations[0])


def test_idle_legality_accepts_shaped_waiting():
    tracer = Tracer()
    tracer.arrival(0.0, "a", 1500, packet_id=1)
    # Ineligible until its send_time at t=50us: the same 50us idle gap
    # is legal for a shaper.
    tracer.enqueue(0.0, "a", rank=50 * US, send_time=50 * US,
                   eligible=False)
    tracer.dequeue(50 * US, "a", rank=50 * US, send_time=50 * US)
    tracer.departure(50 * US, "a", 1500, packet_id=1,
                     finish=62 * US, arrival_t=0.0)
    run = _synthetic_run(tracer.events,
                         spec=AlgorithmSpec(work_conserving=False,
                                            shaped=True))
    assert CHECKERS["idle-legality"](run) == []


def test_no_early_release_catches_pre_send_time_departure():
    tracer = Tracer()
    tracer.arrival(0.0, "a", 1500, packet_id=1)
    tracer.enqueue(0.0, "a", rank=50 * US, send_time=50 * US,
                   eligible=False)
    tracer.dequeue(30 * US, "a", rank=50 * US, send_time=50 * US)
    tracer.departure(30 * US, "a", 1500, packet_id=1,
                     finish=42 * US, arrival_t=0.0)
    run = _synthetic_run(tracer.events,
                         spec=AlgorithmSpec(work_conserving=False,
                                            shaped=True))
    assert CHECKERS["no-early-release"](run)


# ----------------------------------------------------------------------
# Wrong-spec probes: a checker must fire when the algorithm genuinely
# lacks the promised bound.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def strict_priority_backlogged():
    scenario = make_scenario("backlogged")
    return run_scenario(scenario, "strict-priority"), scenario


def test_fairness_envelope_fires_for_packet_fair_sfq():
    """SFQ is packet-fair, not byte-fair: judged in bytes (instead of
    its spec's packet unit) the envelope must break under mixed
    sizes."""
    scenario = make_scenario("backlogged")
    run = run_scenario(scenario, "sfq")
    judged = ConformanceRun(
        analysis=run.analysis,
        spec=AlgorithmSpec(fairness_envelope_mtu=4.0),
        algorithm=run.algorithm, scenario=scenario,
        link_rate_bps=run.link_rate_bps)
    assert CHECKERS["fairness-envelope"](judged), (
        "byte-judged SFQ must drift outside the envelope")


def test_gps_delay_bound_fires_for_strict_priority(
        strict_priority_backlogged):
    run, scenario = strict_priority_backlogged
    judged = ConformanceRun(
        analysis=run.analysis,
        spec=AlgorithmSpec(gps_delay_slack=1.0),
        algorithm=run.algorithm, scenario=scenario,
        link_rate_bps=run.link_rate_bps)
    assert CHECKERS["gps-delay-bound"](judged), (
        "strict priority starves low-priority flows far beyond the "
        "GPS bound")


def test_priority_inversion_fires_for_fair_queue():
    scenario = make_scenario("priority")
    run = run_scenario(scenario, "drr")
    judged = ConformanceRun(
        analysis=run.analysis,
        spec=AlgorithmSpec(priority_ordered=True),
        algorithm=run.algorithm, scenario=scenario,
        link_rate_bps=run.link_rate_bps)
    assert CHECKERS["priority-inversion"](judged), (
        "round robin across priorities must show inversions when "
        "judged as strict priority")


def test_checker_registry_covers_all_spec_names():
    spec_names = set()
    for flags in (
            {}, {"work_conserving": False}, {"shaped": True},
            {"gps_delay_slack": 1.0}, {"fairness_envelope_mtu": 1.0},
            {"priority_ordered": True}, {"token_bucket": True},
            {"slotted": True}):
        spec_names.update(AlgorithmSpec(**flags).checkers())
    assert spec_names == set(CHECKERS), (
        "spec-derivable checker names and the registry diverged")


def test_check_run_reports_every_applicable_checker():
    scenario = make_scenario("backlogged")
    run = run_scenario(scenario, "drr")
    outcomes = check_run(run)
    assert [outcome.checker for outcome in outcomes] == \
        list(run.spec.checkers())


def test_injected_reorder_fails_the_report():
    report = check_algorithm("drr", inject="reorder")
    assert not report.passed


def test_injected_early_fails_the_report():
    report = check_algorithm("drr", inject="early")
    assert not report.passed
