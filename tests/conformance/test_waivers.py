"""Regression pins for every documented conformance waiver.

A waiver is a named, accepted deviation from a textbook bound.  These
tests hold each one in place from *both* sides: the deviation must
still occur (otherwise the waiver is stale and should be removed) and
it must stay inside the looser bound the waiver documents (otherwise
the implementation drifted further than the waiver covers).
"""

import pytest

from repro.conformance import check_algorithm
from repro.conformance.scenarios import make_scenario
from repro.sched.registry import available_algorithms, get_spec


def _gps_outcome(report):
    for outcome in report.outcomes:
        if outcome.checker == "gps-delay-bound":
            return outcome
    raise AssertionError("gps-delay-bound did not run")


@pytest.fixture(scope="module")
def backlogged_scenario():
    return make_scenario("backlogged")


def test_wfq_scfq_waiver_still_needed(backlogged_scenario):
    """The SCFQ clock must still exceed the Parekh-Gallager bound on
    the pinned scenario — if this starts passing, drop the waiver."""
    report = check_algorithm("wfq", scenario=backlogged_scenario)
    outcome = _gps_outcome(report)
    assert outcome.violations, (
        "wfq met the 1*L_max/R bound; the SCFQ waiver is stale")
    assert outcome.waived
    assert report.passed


def test_wfq_scfq_excess_within_golestani_bound(backlogged_scenario):
    """Golestani's SCFQ bound is (F-1)*L_max/R for F flows; the
    observed excess beyond GPS must stay inside it."""
    report = check_algorithm("wfq", scenario=backlogged_scenario)
    flow_count = len(backlogged_scenario.flows)
    worst = max(violation.details["excess_lmax"]
                for violation in _gps_outcome(report).violations)
    assert worst <= flow_count - 1, (
        f"wfq exceeded the Golestani envelope: {worst:.2f} L_max/R")


@pytest.mark.parametrize("name", ["wf2q+", "wcwfq"])
def test_wf2q_clock_waiver_still_needed(name, backlogged_scenario):
    """WF2Q+'s approximate virtual clock must still lag exact GPS on
    the pinned scenario — if this starts passing, drop the waiver."""
    report = check_algorithm(name, scenario=backlogged_scenario)
    outcome = _gps_outcome(report)
    assert outcome.violations, (
        f"{name} met the 1*L_max/R bound; the clock waiver is stale")
    assert outcome.waived
    assert report.passed


@pytest.mark.parametrize("name", ["wf2q+", "wcwfq"])
def test_wf2q_excess_within_two_lmax(name, backlogged_scenario):
    """The documented envelope for the approximate clock: at most
    2 * L_max/R beyond the GPS fluid finish."""
    report = check_algorithm(name, scenario=backlogged_scenario)
    worst = max(violation.details["excess_lmax"]
                for violation in _gps_outcome(report).violations)
    assert worst <= 2.0 + 1e-9, (
        f"{name} exceeded the waived 2*L_max/R envelope: "
        f"{worst:.2f} L_max/R")


def test_every_registry_waiver_is_pinned_here():
    """Each waiver in the registry must name this file, and each
    (algorithm, checker) pair must be one this module exercises."""
    pinned = {("wfq", "gps-delay-bound"), ("wf2q+", "gps-delay-bound"),
              ("wcwfq", "gps-delay-bound")}
    found = set()
    for name in available_algorithms():
        for checker, text in get_spec(name).waivers.items():
            assert "tests/conformance/test_waivers.py" in text, (
                f"waiver {name}/{checker} lacks a regression-test "
                "pointer")
            found.add((name, checker))
    assert found == pinned, (
        f"waiver set changed ({found ^ pinned}); update the pins")
