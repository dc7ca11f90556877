"""Registry-backend throughput: reference vs hardware.

Records primitive-op throughput for the semantic oracle and the
cycle-accurate hardware model at N in {256, 1024, 4096} into
``bench_results/backend_throughput.txt``.

Both numeric columns come from **one instrumented pass** per
(backend, size): the op stream is driven through a
:class:`~repro.obs.TracedList` (so ``avg_op_us`` is the obs layer's own
histogram mean) while the very same pass is wall-clocked end to end (so
``ops_per_sec`` covers the identical operations).  Earlier revisions
measured the two columns in two separate runs with different op counts,
which made them mutually inconsistent — ``avg_op_us`` implied a
different ops/sec than the ``ops_per_sec`` column showed.  The columns
now satisfy ``ops_per_sec ~= 1e6 / avg_op_us`` up to loop overhead
outside the traced calls.
"""

import random
import time

import pytest

from repro.core.element import Element
from repro.core.backends import make_list
from repro.experiments.runner import Table
from repro.experiments.scheduling_rate import software_ops_per_sec
from repro.obs import MetricsRegistry, TracedList

SIZES = (256, 1_024, 4_096)
BACKENDS = ("reference", "hardware")
OPERATIONS = 20_000


def _measure(backend: str, capacity: int,
             operations: int = OPERATIONS, seed: int = 1):
    """One instrumented pass; returns ``(ops_per_sec, avg_op_us)``.

    Same mixed op stream as :func:`software_ops_per_sec` (half-full
    warm-up, coin-flip enqueue/dequeue), but with the randomness
    pre-built so the timed loop holds only list work plus the
    :class:`TracedList` shim.  The wall clock wraps exactly the loop
    whose per-op latencies land in the metrics histograms.
    """
    registry = MetricsRegistry()
    rng = random.Random(seed)
    pieo = TracedList(make_list(backend, capacity=capacity),
                      metrics=registry)
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
    start = time.perf_counter()
    for index in range(operations):
        if len(pieo) < capacity and (len(pieo) == 0 or coins[index]):
            pieo.enqueue(elements[index])
        else:
            pieo.dequeue(now=nows[index])
    elapsed = time.perf_counter() - start
    histograms = registry.to_dict()["histograms"]
    total_us = sum(h["sum"] for h in histograms.values())
    total_ops = sum(h["count"] for h in histograms.values())
    return operations / elapsed, total_us / total_ops


def _throughput_table() -> Table:
    table = Table(
        title=("Backend throughput: instrumented primitive ops "
               f"({OPERATIONS} mixed ops, half-full start, one traced "
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
                   "TracedList pass, so ops_per_sec ~= 1e6 / avg_op_us "
                   "up to loop overhead outside the traced calls. The "
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
