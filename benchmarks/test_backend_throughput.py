"""Registry-backend throughput: reference vs hardware.

Records primitive-op throughput for the semantic oracle and the
cycle-accurate hardware model at N in {256, 1024, 4096} into
``bench_results/backend_throughput.txt``.

Both numeric columns come from **one pass** per (backend, size): each
operation on the bare backend is timed with :func:`time.perf_counter`
(``avg_op_us`` is the mean of those per-op times) while the very same
pass is wall-clocked end to end (so ``ops_per_sec`` covers the
identical operations).  The columns therefore satisfy ``ops_per_sec ~=
1e6 / avg_op_us`` up to loop and timer overhead outside the timed
calls.
"""

import random
import time

import pytest

from repro.core.element import Element
from repro.core.backends import make_list
from repro.experiments.runner import Table
from repro.experiments.scheduling_rate import software_ops_per_sec

SIZES = (256, 1_024, 4_096)
BACKENDS = ("reference", "hardware")
OPERATIONS = 20_000


def _measure(backend: str, capacity: int,
             operations: int = OPERATIONS, seed: int = 1):
    """One timed pass; returns ``(ops_per_sec, avg_op_us)``.

    Same mixed op stream as :func:`software_ops_per_sec` (half-full
    warm-up, coin-flip enqueue/dequeue), but with the randomness
    pre-built so the timed loop holds only list work plus the per-op
    timer reads.  The wall clock wraps exactly the loop whose per-op
    times are summed.
    """
    rng = random.Random(seed)
    pieo = make_list(backend, capacity=capacity)
    for index in range(capacity // 2):
        pieo.enqueue(Element(flow_id=("warm", index),
                             rank=rng.randint(0, 1 << 16),
                             send_time=rng.randint(0, 1 << 16)))
    ops_rng = random.Random(seed + 1)
    coins = [ops_rng.random() < 0.5 for _ in range(operations)]
    elements = [Element(flow_id=("op", index),
                        rank=ops_rng.randint(0, 1 << 16),
                        send_time=ops_rng.randint(0, 1 << 16))
                for index in range(operations)]
    nows = [ops_rng.randint(0, 1 << 16) for _ in range(operations)]
    clock = time.perf_counter
    in_ops = 0.0
    start = clock()
    for index in range(operations):
        if len(pieo) < capacity and (len(pieo) == 0 or coins[index]):
            op_start = clock()
            pieo.enqueue(elements[index])
        else:
            op_start = clock()
            pieo.dequeue(now=nows[index])
        in_ops += clock() - op_start
    elapsed = clock() - start
    return operations / elapsed, in_ops * 1e6 / operations


def _throughput_table() -> Table:
    table = Table(
        title=("Backend throughput: timed primitive ops "
               f"({OPERATIONS} mixed ops, half-full start, one timed "
               "pass per row)"),
        headers=["backend", "size", "ops_per_sec", "speedup_vs_reference",
                 "avg_op_us"],
    )
    for size in SIZES:
        baseline = None
        for backend in BACKENDS:
            ops_per_sec, avg_op_us = _measure(backend, size)
            if baseline is None:
                baseline = ops_per_sec
            table.add_row(backend, size, round(ops_per_sec),
                          round(ops_per_sec / baseline, 1),
                          round(avg_op_us, 2))
    table.add_note("ops_per_sec and avg_op_us come from the same "
                   "pass, so ops_per_sec ~= 1e6 / avg_op_us up to loop "
                   "and timer overhead outside the timed calls. The "
                   "cycle-accurate model beats the oracle at larger N "
                   "despite per-op accounting (O(sqrt N) sublist walks "
                   "vs the oracle's linear eligibility scan).")
    return table


def test_backend_throughput_table(benchmark, save_table):
    table = benchmark.pedantic(_throughput_table, rounds=1, iterations=1)
    save_table("backend_throughput", table)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_ops_per_sec_4096(benchmark, backend):
    """Per-backend un-instrumented ops/sec at the headline size, as its
    own benchmark series (pytest-benchmark captures the distribution)."""
    result = benchmark.pedantic(
        software_ops_per_sec, args=(backend, 4_096),
        kwargs={"operations": 5_000}, rounds=3, iterations=1)
    assert result > 0
    benchmark.extra_info["backend"] = backend
