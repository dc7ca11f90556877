"""The reference list's sublist storage against a plain sorted list.

Past :data:`~repro.core.reference.SUBLIST_MAX` elements a flat
``ReferencePieo`` stores its order as sublists, each with a routing rank
and a lower bound on its send times.  Hypothesis drives it in lockstep
with :class:`SortedModel` — one Python list sorted by ``(rank, seq)``,
scanned from the front — through batches of enqueues that grow it well
past the threshold, every kind of dequeue, ``peek``, ``snapshot`` and
``min_send_time``, and a late switch to grouped storage.  After every
step the sublists must hold the structure's invariants:

* no empty sublist in a non-empty list, and none longer than
  ``SUBLIST_MAX``;
* keys strictly increasing across the sublists, with the ranks list
  mirroring the elements;
* each routing rank at least every rank of its sublist and at most
  every rank after it (the last sublist's is unused);
* each send-time bound at most its sublist's smallest send time.
"""

import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule, run_state_machine_as_test)

from repro.core.element import NEVER_ELIGIBLE, Element
from repro.core.reference import SUBLIST_MAX, ReferencePieo

RANKS = st.integers(min_value=0, max_value=12)      # small → many ties
SEND_TIMES = st.sampled_from([0, 1, 2, 5, 10, 40, NEVER_ELIGIBLE])
NOWS = st.sampled_from([0, 1, 2, 5, 10, 40, 100, math.inf])
GROUPS = st.integers(min_value=0, max_value=3)
SPEC = st.tuples(RANKS, SEND_TIMES, GROUPS)


class SortedModel:
    """PIEO as one list of ``[rank, seq, element]`` in key order."""

    def __init__(self):
        self.entries = []
        self.next_seq = 0

    def enqueue(self, element):
        self.entries.append((element.rank, self.next_seq, element))
        self.next_seq += 1
        self.entries.sort(key=lambda entry: entry[:2])

    def _first(self, now, group_range=None):
        for position, (_, _, element) in enumerate(self.entries):
            if element.send_time <= now and (
                    group_range is None
                    or group_range[0] <= element.group <= group_range[1]):
                return position
        return None

    def dequeue(self, now, group_range=None):
        position = self._first(now, group_range)
        return None if position is None else self.entries.pop(position)[2]

    def peek(self, now, group_range=None):
        position = self._first(now, group_range)
        return None if position is None else self.entries[position][2]

    def dequeue_flow(self, flow_id):
        for position, (_, _, element) in enumerate(self.entries):
            if element.flow_id == flow_id:
                return self.entries.pop(position)[2]
        return None

    def snapshot(self):
        return [element for _, _, element in self.entries]

    def min_send_time(self):
        return min((element.send_time for _, _, element in self.entries),
                   default=math.inf)


def check_sublists(pieo):
    """Assert the sublist invariants of the module docstring."""
    subs = pieo._subs
    if subs is None:
        return
    assert (len(pieo._sub_ranks) == len(pieo._sub_last)
            == len(pieo._sub_low) == len(subs))
    if len(pieo):
        assert all(subs), "empty sublist in a non-empty list"
    else:
        assert subs == [[]]
    assert all(len(items) <= SUBLIST_MAX for items in subs)
    keys = [(element.rank, element.seq) for items in subs
            for element in items]
    assert all(a < b for a, b in zip(keys, keys[1:])), "keys out of order"
    assert len(keys) == len(pieo)
    for index, items in enumerate(subs):
        assert pieo._sub_ranks[index] == [element.rank for element in items]
        if items:
            assert pieo._sub_low[index] <= min(element.send_time
                                               for element in items)
        if index < len(subs) - 1:
            # Keys are sorted, so the neighbours decide.
            route = pieo._sub_last[index]
            assert items[-1].rank <= route <= subs[index + 1][0].rank


def _same(actual, expected):
    if expected is None:
        assert actual is None
    else:
        assert actual is not None and actual.flow_id == expected.flow_id


class SublistLockstep(RuleBasedStateMachine):

    def __init__(self):
        super().__init__()
        self.pieo = ReferencePieo()
        self.model = SortedModel()
        self.next_flow = 0

    @initialize(specs=st.lists(SPEC, min_size=SUBLIST_MAX + 1,
                               max_size=4 * SUBLIST_MAX))
    def fill_past_the_threshold(self, specs):
        self.enqueue_batch(specs)
        assert self.pieo._subs is not None

    @rule(specs=st.lists(SPEC, min_size=1, max_size=SUBLIST_MAX + 8))
    def enqueue_batch(self, specs):
        for rank, send_time, group in specs:
            flow_id = self.next_flow
            self.next_flow += 1
            self.pieo.enqueue(Element(flow_id, rank, send_time, group))
            self.model.enqueue(Element(flow_id, rank, send_time, group))

    @rule(now=NOWS, times=st.integers(min_value=1, max_value=12))
    def dequeue(self, now, times):
        for _ in range(times):
            _same(self.pieo.dequeue(now), self.model.dequeue(now))

    @rule(now=NOWS, lo=GROUPS, width=st.integers(min_value=1, max_value=3))
    def dequeue_ranged(self, now, lo, width):
        group_range = (lo, lo + width)
        _same(self.pieo.dequeue(now, group_range),
              self.model.dequeue(now, group_range))

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def dequeue_flow(self, pick):
        # Resident ids and, past the end, ids that are gone or unused.
        flow_id = pick % (self.next_flow + 2)
        _same(self.pieo.dequeue_flow(flow_id),
              self.model.dequeue_flow(flow_id))

    @rule(now=NOWS, lo=GROUPS, width=st.integers(min_value=0, max_value=3))
    def peek(self, now, lo, width):
        group_range = None if width == 0 else (lo, lo + width)
        _same(self.pieo.peek(now, group_range),
              self.model.peek(now, group_range))

    @rule()
    def min_send_time(self):
        assert self.pieo.min_send_time() == self.model.min_send_time()

    @rule(now=NOWS, group=GROUPS, coin=st.integers(min_value=0, max_value=7))
    def single_group_dequeue(self, now, group, coin):
        # Rare: the first single-group op moves the list to grouped
        # storage for good, so most runs stay on sublists throughout.
        if coin == 0:
            _same(self.pieo.dequeue(now, (group, group)),
                  self.model.dequeue(now, (group, group)))

    @invariant()
    def agrees_with_model(self):
        assert len(self.pieo) == len(self.model.entries)
        assert ([element.flow_id for element in self.pieo.snapshot()]
                == [element.flow_id for element in self.model.snapshot()])

    @invariant()
    def sublists_hold_their_invariants(self):
        check_sublists(self.pieo)


def test_sublist_storage_matches_sorted_model():
    run_state_machine_as_test(
        SublistLockstep,
        settings=settings(max_examples=40, stateful_step_count=40,
                          deadline=None))


def test_long_random_run_crosses_every_path():
    """A seeded run that grows and drains the list in turns, so it
    splits sublists, removes emptied ones and empties altogether many
    times over, checked against the model at every step."""
    rng = random.Random(11)
    pieo, model = ReferencePieo(), SortedModel()
    splits = removals = empties = 0
    for step in range(6_000):
        before = 0 if pieo._subs is None else len(pieo._subs)
        was_empty = not len(pieo)
        growing = step // 300 % 2 == 0
        if rng.random() < (0.7 if growing else 0.15):
            rank = rng.randint(0, 40)
            send_time = rng.choice([0, 3, 9, 20, NEVER_ELIGIBLE])
            pieo.enqueue(Element(step, rank, send_time))
            model.enqueue(Element(step, rank, send_time))
        elif rng.random() < 0.85:
            now = rng.choice([0, 3, 9, 20, math.inf, math.inf])
            _same(pieo.dequeue(now), model.dequeue(now))
        else:
            flow_id = step - rng.randint(1, 300)
            _same(pieo.dequeue_flow(flow_id), model.dequeue_flow(flow_id))
        if pieo._subs is not None:
            splits += len(pieo._subs) > before
            removals += len(pieo._subs) < before
            empties += not len(pieo) and not was_empty
        check_sublists(pieo)
        assert len(pieo) == len(model.entries)
    assert splits > 40 and removals > 40 and empties > 3
    assert pieo.min_send_time() == model.min_send_time()
    assert ([element.flow_id for element in pieo.snapshot()]
            == [element.flow_id for element in model.snapshot()])
