"""Metamorphic harness tests: transforms preserve verdicts.

The quick tests pin each transform's mechanics and run one cheap
algorithm through the battery; the full registry sweep (every
algorithm x every transform x backend substitution) is
``slow``-marked for the conformance CI job.
"""

import pytest

from repro.conformance.metamorphic import (SUBSTITUTIONS, TRANSFORMS,
                                           apply_transform,
                                           metamorphic_verdicts)
from repro.conformance.scenarios import make_scenario
from repro.sched.registry import available_algorithms, get_spec

def test_scale_time_rescales_everything_consistently():
    scenario = make_scenario("slotted")
    scaled = apply_transform("time-scale", scenario)
    assert scaled.duration == pytest.approx(2 * scenario.duration)
    assert scaled.link_rate_bps == pytest.approx(
        scenario.link_rate_bps / 2)
    assert scaled.slot_plan[0] == pytest.approx(
        2 * scenario.slot_plan[0])
    assert scaled.arrivals[0][0] == pytest.approx(
        2 * scenario.arrivals[0][0])
    # Sizes are untouched.
    assert ([size for _, _, size in scaled.arrivals]
            == [size for _, _, size in scenario.arrivals])


def test_scale_size_preserves_times():
    scenario = make_scenario("shaped")
    scaled = apply_transform("size-scale", scenario)
    assert ([time for time, _, _ in scaled.arrivals]
            == [time for time, _, _ in scenario.arrivals])
    assert scaled.flows[0].rate_bps == pytest.approx(
        2 * scenario.flows[0].rate_bps)
    assert scaled.flows[0].burst_bytes == pytest.approx(
        2 * scenario.flows[0].burst_bytes)


def test_permute_flows_moves_attributes_with_arrivals():
    scenario = make_scenario("priority")
    permuted = apply_transform("flow-permutation", scenario)
    base_priority = {flow.flow_id: flow.priority
                     for flow in scenario.flows}
    new_priority = {flow.flow_id: flow.priority
                    for flow in permuted.flows}
    # The multiset of priorities is unchanged and per-flow arrival
    # counts moved with the renaming.
    assert sorted(base_priority.values()) == \
        sorted(new_priority.values())
    assert len(permuted.arrivals) == len(scenario.arrivals)


def test_translate_time_shifts_and_extends():
    scenario = make_scenario("poisson")
    shifted = apply_transform("time-translation", scenario)
    offset = shifted.arrivals[0][0] - scenario.arrivals[0][0]
    assert offset > 0
    assert shifted.duration == pytest.approx(
        scenario.duration + 1.3e-3)


def test_drr_battery_preserves_verdicts():
    scenario = make_scenario("backlogged")
    result = metamorphic_verdicts("drr", scenario,
                                  substitutions=SUBSTITUTIONS)
    assert result.passed, result.mismatches
    assert set(result.transformed) == (
        set(TRANSFORMS) | {"backend=hardware"})


@pytest.mark.slow
@pytest.mark.parametrize("name", available_algorithms())
def test_full_registry_metamorphic_sweep(name):
    spec = get_spec(name)
    scenario = make_scenario(spec.scenario)
    result = metamorphic_verdicts(name, scenario,
                                  substitutions=SUBSTITUTIONS)
    assert result.base.passed, (
        f"{name} base scenario failed before any transform")
    assert result.passed, f"{name}: {result.mismatches}"
