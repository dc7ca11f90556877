"""Observability overhead: raw backend vs TracedList (null and live).

Measures mixed primitive-op throughput for each software backend in
three configurations:

* ``raw`` — the bare backend from the registry;
* ``traced-null`` — wrapped in :class:`TracedList` with the default
  null observers (the configuration shipped when nobody passes
  ``--trace``/``--metrics``);
* ``traced-live`` — wrapped with a live ring-buffer tracer *and* a
  metrics registry, i.e. the full observation cost.

The guarantee under regression test: the null path costs < 10% ops/sec
versus the raw backend.  (The live path is reported for scale but not
gated — paying for observation is the user's explicit choice.)

Results land in ``bench_results/obs_overhead.txt``.
"""

import random
import time

from repro.core.backends import make_list
from repro.core.element import Element
from repro.experiments.runner import Table
from repro.obs import MetricsRegistry, TracedList, Tracer

BACKENDS = ("reference", "hardware", "fast")
CAPACITY = 1_024
OPERATIONS = 20_000
ROUNDS = 3  # best-of to damp scheduler noise
MAX_NULL_OVERHEAD_PCT = 10.0


def _drive(pieo, operations=OPERATIONS, seed=1) -> float:
    """Mixed enqueue/dequeue stream; returns ops/sec.

    The op stream is pre-generated and occupancy is tracked from return
    values, so the timed region contains only primitive calls — the
    identical sequence for every configuration.
    """
    rng = random.Random(seed)
    for index in range(CAPACITY // 2):
        pieo.enqueue(Element(("warm", index),
                             rank=rng.randint(0, 1 << 16),
                             send_time=rng.randint(0, 1 << 16)))
    ops_rng = random.Random(seed + 1)
    coins = [ops_rng.random() < 0.5 for _ in range(operations)]
    elements = [Element(index, rank=ops_rng.randint(0, 1 << 16),
                        send_time=ops_rng.randint(0, 1 << 16))
                for index in range(operations)]
    nows = [ops_rng.randint(0, 1 << 16) for _ in range(operations)]
    enqueue, dequeue = pieo.enqueue, pieo.dequeue
    occupancy = len(pieo)
    start = time.perf_counter()
    for index in range(operations):
        if occupancy < CAPACITY and (occupancy == 0 or coins[index]):
            enqueue(elements[index])
            occupancy += 1
        elif dequeue(now=nows[index]) is not None:
            occupancy -= 1
    elapsed = time.perf_counter() - start
    return operations / elapsed


def _make(backend: str, mode: str):
    inner = make_list(backend, capacity=CAPACITY)
    if mode == "raw":
        return inner
    if mode == "traced-null":
        return TracedList(inner)
    return TracedList(inner, tracer=Tracer(capacity=CAPACITY),
                      metrics=MetricsRegistry())


def _best_of(backend: str, mode: str) -> float:
    return max(_drive(_make(backend, mode)) for _ in range(ROUNDS))


def _overhead_table() -> Table:
    table = Table(
        title=(f"Observability overhead: {OPERATIONS} mixed ops, "
               f"N={CAPACITY}, best of {ROUNDS}"),
        headers=["backend", "mode", "ops_per_sec", "delta_vs_raw_pct"],
    )
    for backend in BACKENDS:
        raw = _best_of(backend, "raw")
        for mode in ("raw", "traced-null", "traced-live"):
            measured = raw if mode == "raw" else _best_of(backend, mode)
            delta = (raw - measured) / raw * 100.0
            table.add_row(backend, mode, round(measured),
                          round(delta, 1))
    table.add_note("traced-null is the default configuration (no "
                   "--trace/--metrics): the wrapper shadows its methods "
                   "with the inner engine's, so the delta is noise. "
                   "traced-live pays, per op, for two perf_counter() "
                   "calls, a histogram insert, a depth-gauge set and one "
                   "TraceEvent kept in the ring buffer (the typed "
                   "emitter plus emit; with no sink nothing is "
                   "encoded).")
    return table


def test_obs_overhead_table(benchmark, save_table):
    table = benchmark.pedantic(_overhead_table, rounds=1, iterations=1)
    save_table("obs_overhead", table)
    deltas = {(row[0], row[1]): row[3] for row in table.rows}
    for backend in BACKENDS:
        assert deltas[(backend, "traced-null")] < MAX_NULL_OVERHEAD_PCT, (
            f"null-path TracedList costs more than "
            f"{MAX_NULL_OVERHEAD_PCT}% on {backend}; table:\n"
            + table.to_text())
