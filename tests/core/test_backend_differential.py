"""Seed-logged differential testing across *every* registered backend.

Complements the hypothesis suite (:mod:`tests.core
.test_property_differential`): here the op stream comes from a plain
seeded :class:`random.Random`, the seed is part of the test id and of
every assertion message (so a failure is reproducible by pasting one
number), and the lockstep matrix is built from the backend registry —
an extension backend registered at import time gets differentially
tested against the reference oracle for free.
"""

from __future__ import annotations

import random

import pytest

from repro.core.backends import available_backends, make_list
from repro.core.element import Element
from repro.core.reference import SUBLIST_MAX

CAPACITY = 32
#: Past the reference list's flat-storage limit, so it runs on sublists.
LARGE_CAPACITY = 4 * SUBLIST_MAX
OPS_PER_SEED = 1_500
SEEDS = [1, 7, 42, 1337, 0xC0FFEE]

#: Per-backend config for the lockstep matrix.  The hardware model's
#: structural self-check is exercised by the hypothesis suite already;
#: here it stays off so five backends x 1500 ops stays quick.
_CONFIG = {"hardware": {"self_check": False}}


def _lockstep_implementations(capacity):
    names = list(available_backends())
    # The oracle drives the comparison: put it first.
    names.sort(key=lambda name: name != "reference")
    return names, [make_list(name, capacity=capacity,
                             **_CONFIG.get(name, {})) for name in names]


def _generate_op(rng: random.Random, single_group: bool = True):
    kind = rng.random()
    if kind < 0.45:
        return ("enqueue", rng.randint(0, 20),
                rng.choice([0, 3, 7, 12, 25, float("inf")]),
                rng.randint(0, 3))
    if kind < 0.70:
        return ("dequeue", rng.randint(0, 30))
    if kind < 0.85:
        lo = rng.randint(0, 2)
        return ("dequeue_grouped", rng.randint(0, 30), lo,
                lo + rng.randint(0 if single_group else 1, 2))
    return ("dequeue_flow", rng.randint(0, 60))


def _run_lockstep(seed: int, capacity: int, single_group_from: int = 0):
    """Drive every backend through ``OPS_PER_SEED`` random ops and
    return the longest the lists grew.  Single-group dequeues, which
    switch the reference list to grouped storage for good, are drawn
    only from step ``single_group_from`` on."""
    rng = random.Random(seed)
    names, impls = _lockstep_implementations(capacity)
    context = f"seed={seed} capacity={capacity} backends={names}"
    next_flow = 0
    peak = 0
    for step in range(OPS_PER_SEED):
        op = _generate_op(rng, single_group=step >= single_group_from)
        where = f"{context} step={step} op={op}"
        if op[0] == "enqueue":
            if len(impls[0]) >= capacity:
                continue
            _, rank, send_time, group = op
            for impl in impls:
                impl.enqueue(Element(next_flow, rank=rank,
                                     send_time=send_time, group=group))
            next_flow += 1
            peak = max(peak, len(impls[0]))
            continue
        if op[0] == "dequeue":
            results = [impl.dequeue(op[1]) for impl in impls]
        elif op[0] == "dequeue_grouped":
            _, now, lo, hi = op
            results = [impl.dequeue(now, group_range=(lo, hi))
                       for impl in impls]
        else:
            target = op[1] % (next_flow + 1)
            results = [impl.dequeue_flow(target) for impl in impls]
        ids = [(result.flow_id if result is not None else None)
               for result in results]
        assert all(one == ids[0] for one in ids), f"{where} results={ids}"
        snapshots = [[e.flow_id for e in impl.snapshot()] for impl in impls]
        assert all(s == snapshots[0] for s in snapshots), where
        min_sends = [impl.min_send_time() for impl in impls]
        assert all(m == min_sends[0] for m in min_sends), \
            f"{where} min_send={min_sends}"
    return peak


@pytest.mark.parametrize("seed", SEEDS)
def test_all_registered_backends_agree(seed):
    """>= 1000 random ops per seed, every backend in lockstep with the
    reference oracle on results, snapshots and min_send_time."""
    _run_lockstep(seed, CAPACITY)


@pytest.mark.parametrize("seed", SEEDS)
def test_all_registered_backends_agree_past_sublist_threshold(seed):
    """The same lockstep on lists that outgrow ``SUBLIST_MAX``, so the
    reference runs on sublists (and switches to grouped storage in the
    last third of the ops)."""
    peak = _run_lockstep(seed, LARGE_CAPACITY,
                         single_group_from=OPS_PER_SEED * 2 // 3)
    assert peak > SUBLIST_MAX
