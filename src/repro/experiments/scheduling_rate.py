"""Section 6.2: scheduling rate.

Combines the cycle-accurate model (measured cycles per primitive
operation) with the clock model to reproduce the paper's numbers: 4
cycles per op; at 80 MHz non-pipelined that is one op per 50 ns —
"sufficient to schedule MTU-sized packets at 100 Gbps line rate"; on an
ASIC at 1 GHz, 4 ns.

Beyond the paper, :func:`software_rate_table` measures the *Python-side*
throughput of an ordered-list backend (selected through
:mod:`repro.core.backends`) relative to the reference oracle.
"""

from __future__ import annotations

import random
import time
from typing import Optional, Sequence

from repro.core.backends import make_list
from repro.core.element import Element
from repro.experiments.runner import Table
from repro.hw.clock import (MTU_BUDGET_NS_AT_100G, pieo_rate_report,
                            pifo_rate_report)
from repro.hw.device import ASIC, STRATIX_V, Device


def _drive_random_ops(pieo, capacity: int, operations: int,
                      seed: int) -> None:
    """The canonical Section 6.2 workload: a random mix of enqueues and
    (often-ineligible) dequeues against a half-full list."""
    rng = random.Random(seed)
    next_flow = 0
    for _ in range(operations):
        if len(pieo) < capacity and (len(pieo) == 0 or rng.random() < 0.5):
            pieo.enqueue(Element(flow_id=next_flow,
                                 rank=rng.randint(0, 1 << 16),
                                 send_time=rng.randint(0, 1 << 16)))
            next_flow += 1
        else:
            pieo.dequeue(now=rng.randint(0, 1 << 16))


def measured_cycles_per_op(capacity: int = 1_024, operations: int = 2_000,
                           seed: int = 3) -> float:
    """Drive random enqueue/dequeue traffic through the hardware model
    and report average cycles per completed primitive operation."""
    pieo = make_list("hardware", capacity=capacity)
    _drive_random_ops(pieo, capacity, operations, seed)
    counted = sum(count for name, count in pieo.counters.ops.items()
                  if not name.endswith("_null"))
    null_cycles = sum(count for name, count in pieo.counters.ops.items()
                      if name.endswith("_null"))
    if counted == 0:
        return 0.0
    return (pieo.counters.cycles - null_cycles) / counted


def software_ops_per_sec(backend: str, capacity: int,
                         operations: int = 20_000, seed: int = 1) -> float:
    """Wall-clock primitive-op throughput of ``backend`` at ``capacity``.

    The list is pre-warmed to half full so both enqueue and dequeue paths
    see a realistic occupancy.  The random op stream (coin flips, fresh
    elements, ``now`` samples) is generated *before* the clock starts, so
    the measurement covers only the ordered-list operations themselves —
    every backend is handed the identical pre-built stream.
    """
    rng = random.Random(seed)
    pieo = make_list(backend, capacity=capacity)
    for index in range(capacity // 2):
        pieo.enqueue(Element(flow_id=("warm", index),
                             rank=rng.randint(0, 1 << 16),
                             send_time=rng.randint(0, 1 << 16)))
    ops_rng = random.Random(seed + 1)
    coins = [ops_rng.random() < 0.5 for _ in range(operations)]
    elements = [Element(flow_id=index,
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
    return operations / elapsed if elapsed > 0 else float("inf")


def software_rate_table(backend: Optional[str] = None,
                        sizes: Sequence[int] = (256, 1_024, 4_096),
                        operations: int = 20_000) -> Table:
    """Python-side ops/sec of a registry backend vs the reference.

    ``backend`` selects the engine under test (default ``"reference"``,
    which measures the oracle alone); the reference oracle is always
    measured alongside as the baseline.
    """
    backend = backend or "reference"
    table = Table(
        title=("Software backend throughput (Python-side primitive "
               "ops/sec; registry backends)"),
        headers=["backend", "size", "ops_per_sec", "speedup_vs_reference"],
    )
    for size in sizes:
        baseline = software_ops_per_sec("reference", size, operations)
        table.add_row("reference", size, round(baseline), 1.0)
        if backend != "reference":
            measured = software_ops_per_sec(backend, size, operations)
            table.add_row(backend, size, round(measured),
                          round(measured / baseline, 1))
    table.add_note("Identical random op mix per size (seeded); pass "
                   "--backend NAME to measure another registry backend "
                   "against the reference oracle.")
    return table


def rate_table(sizes: Sequence[int] = (1_024, 8_192, 30_000),
               device: Device = STRATIX_V) -> Table:
    """Section 6.2's scheduling-rate numbers across devices/sizes."""
    table = Table(
        title="Section 6.2: scheduling rate (non-pipelined)",
        headers=["design", "device", "size", "clock_mhz", "cycles_per_op",
                 "ns_per_op", "meets_mtu_100g"],
    )
    for size in sizes:
        report = pieo_rate_report(size, device)
        table.add_row("pieo", device.name, size,
                      round(report.clock_mhz, 1), report.cycles_per_op,
                      round(report.op_latency_ns, 1),
                      report.meets_mtu_at_100g)
    pifo = pifo_rate_report(1_024, device)
    table.add_row("pifo", device.name, 1_024, round(pifo.clock_mhz, 1),
                  pifo.cycles_per_op, round(pifo.op_latency_ns, 1),
                  pifo.meets_mtu_at_100g)
    asic = pieo_rate_report(30_000, ASIC)
    table.add_row("pieo", ASIC.name, 30_000, round(asic.clock_mhz, 1),
                  asic.cycles_per_op, round(asic.op_latency_ns, 1),
                  asic.meets_mtu_at_100g)
    table.add_note(f"MTU budget at 100 Gbps: {MTU_BUDGET_NS_AT_100G} ns "
                   "per decision (Section 1).")
    table.add_note("cycles_per_op is also measured empirically from the "
                   "cycle-accurate model: "
                   f"{measured_cycles_per_op():.2f} cycles/op.")
    return table
