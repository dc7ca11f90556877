"""Property-based differential testing: the cycle-accurate hardware model
must be observationally equivalent to the reference oracle under any
operation sequence, while maintaining every structural invariant
(including Invariant 1) after every operation."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.element import Element
from repro.core.pieo import PieoHardwareList
from repro.core.pifo import PifoDesignPieoList
from repro.core.reference import ReferencePieo

CAPACITY = 24

# One abstract operation: (kind, rank, send_time, now, group, target)
operation = st.tuples(
    st.sampled_from(["enqueue", "dequeue", "dequeue_flow",
                     "dequeue_grouped"]),
    st.integers(min_value=0, max_value=15),            # rank
    st.sampled_from([0, 3, 7, 12, 25, float("inf")]),  # send_time
    st.integers(min_value=0, max_value=30),            # now
    st.integers(min_value=0, max_value=2),             # group
    st.integers(min_value=0, max_value=40),            # dequeue_flow target
)


def apply_ops(ops, implementations):
    """Run the op sequence on every implementation; assert agreement."""
    next_flow = 0
    for kind, rank, send_time, now, group, target in ops:
        if kind == "enqueue":
            if len(implementations[0]) >= CAPACITY:
                continue
            for impl in implementations:
                impl.enqueue(Element(next_flow, rank=rank,
                                     send_time=send_time, group=group))
            next_flow += 1
        elif kind == "dequeue":
            results = [impl.dequeue(now) for impl in implementations]
            _assert_same(results)
        elif kind == "dequeue_grouped":
            results = [impl.dequeue(now, group_range=(0, group))
                       for impl in implementations]
            _assert_same(results)
        else:
            results = [impl.dequeue_flow(target % (next_flow + 1))
                       for impl in implementations]
            _assert_same(results)
        snapshots = [[e.flow_id for e in impl.snapshot()]
                     for impl in implementations]
        assert all(snapshot == snapshots[0] for snapshot in snapshots)
        assert all(impl.min_send_time() == implementations[0].min_send_time()
                   for impl in implementations)


def _assert_same(results):
    ids = [(result.flow_id if result is not None else None)
           for result in results]
    assert all(one == ids[0] for one in ids), ids


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(operation, max_size=120))
def test_hardware_matches_reference(ops):
    apply_ops(ops, [ReferencePieo(CAPACITY),
                    PieoHardwareList(CAPACITY, self_check=True)])


@settings(max_examples=75, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(operation, max_size=80))
def test_pifo_design_variant_matches_reference(ops):
    apply_ops(ops, [ReferencePieo(CAPACITY),
                    PifoDesignPieoList(CAPACITY)])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(operation, max_size=80),
       st.integers(min_value=1, max_value=9))
def test_hardware_invariants_hold_for_any_sublist_size(ops, sublist_size):
    """Invariant 1 and friends must hold even for non-sqrt sublist sizes
    (the ablation configurations)."""
    hardware = PieoHardwareList(CAPACITY, sublist_size=sublist_size,
                                self_check=True)
    apply_ops(ops, [ReferencePieo(CAPACITY), hardware])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)),
                min_size=1, max_size=CAPACITY))
def test_snapshot_always_sorted(pairs):
    """Global-Ordered-List property: snapshot is sorted by (rank, seq)."""
    hardware = PieoHardwareList(CAPACITY, self_check=True)
    for index, (rank, send_time) in enumerate(pairs):
        hardware.enqueue(Element(index, rank=rank, send_time=send_time))
    snapshot = hardware.snapshot()
    keys = [element.sort_key() for element in snapshot]
    assert keys == sorted(keys)
    ranks = [element.rank for element in snapshot]
    assert ranks == sorted(ranks)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=CAPACITY))
def test_equal_ranks_drain_fifo(ranks):
    """Section 3.1 tie-break: equal ranks dequeue in enqueue order."""
    hardware = PieoHardwareList(CAPACITY, self_check=True)
    for index, rank in enumerate(ranks):
        hardware.enqueue(Element(index, rank=rank))
    served = []
    while len(hardware):
        served.append(hardware.dequeue(now=0))
    expected = sorted(range(len(ranks)), key=lambda i: (ranks[i], i))
    assert [element.flow_id for element in served] == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=CAPACITY),
       st.integers(0, 30))
def test_dequeue_never_returns_ineligible(send_times, now):
    hardware = PieoHardwareList(CAPACITY, self_check=True)
    for index, send_time in enumerate(send_times):
        hardware.enqueue(Element(index, rank=index, send_time=send_time))
    element = hardware.dequeue(now=now)
    eligible = [t for t in send_times if t <= now]
    if eligible:
        assert element is not None
        assert element.send_time <= now
        # Smallest rank among eligible == smallest index enqueued with
        # send_time <= now (ranks are the enqueue indices here).
        expected = min(index for index, t in enumerate(send_times)
                       if t <= now)
        assert element.flow_id == expected
    else:
        assert element is None
