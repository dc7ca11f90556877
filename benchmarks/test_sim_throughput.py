"""End-to-end simulation throughput on the fig12 workload.

Measures packets/sec through the full stack (sources -> hierarchical
TokenBucket/WF2Q+ scheduler -> transmit engine -> 40 Gbps link) with
the transmit engine's batched drain off and on, and records the result
in ``bench_results/sim_throughput.txt``.

Methodology: the wall clock is noisy (±30% run to run), so raw
packets/sec from different invocations are not comparable.  Every round
therefore runs both configurations back to back and only the
*within-round ratio* against the baseline is trusted; the table reports
the median ratio across rounds next to the median raw rate.  The
baseline (``reference``: batched drain off) dispatches every transmit
timer through the event queue; ``reference+drain`` lets one engine
callback fast-forward the clock through a chain of them
(:meth:`repro.sim.events.Simulator.advance_to`), the default for
unobserved single-port runs.
"""

import statistics
import time

from repro.experiments.hier_common import (default_node_rates,
                                           run_hierarchy)
from repro.experiments.runner import Table
from repro.sim.packet import reset_packet_ids

DURATION = 0.003
ROUNDS = 3

#: (label, drain) — first entry is the baseline.
CONFIGS = (
    ("reference", False),
    ("reference+drain", True),
)


def _one_run(drain: bool):
    """One fig12-workload simulation; returns (packets, elapsed_sec)."""
    reset_packet_ids(0)
    start = time.perf_counter()
    run = run_hierarchy(default_node_rates(), duration=DURATION,
                        drain=drain)
    elapsed = time.perf_counter() - start
    return len(run.engine.recorder), elapsed


def _throughput_table() -> Table:
    rates = {label: [] for label, _ in CONFIGS}
    ratios = {label: [] for label, _ in CONFIGS}
    packets = None
    for _ in range(ROUNDS):
        round_rates = {}
        for label, drain in CONFIGS:
            count, elapsed = _one_run(drain)
            if packets is None:
                packets = count
            assert count == packets, (
                f"{label}: {count} packets != baseline {packets}; "
                "configurations must be result-identical")
            round_rates[label] = count / elapsed
        base = round_rates[CONFIGS[0][0]]
        for label, rate in round_rates.items():
            rates[label].append(rate)
            ratios[label].append(rate / base)
    table = Table(
        title=(f"Simulation throughput, fig12 workload ({packets} "
               f"packets, {DURATION*1e3:g} ms simulated, "
               f"{ROUNDS} interleaved rounds)"),
        headers=["config", "drain", "pps_median", "ratio_vs_baseline"],
    )
    for label, drain in CONFIGS:
        table.add_row(label, "on" if drain else "off",
                      round(statistics.median(rates[label])),
                      round(statistics.median(ratios[label]), 2))
    table.add_note("ratio_vs_baseline is the median of within-round "
                   "ratios (each round runs every config back to back), "
                   "which cancels machine-load drift; raw pps_median is "
                   "machine-state dependent and not comparable across "
                   "invocations. baseline = reference (every transmit "
                   "timer through the event queue, batched drain off).")
    return table


def test_sim_throughput_table(benchmark, save_table):
    table = benchmark.pedantic(_throughput_table, rounds=1, iterations=1)
    save_table("sim_throughput", table)
    ratio = dict(zip(table.column("config"),
                     table.column("ratio_vs_baseline")))
    # The floor sits well under the observed median (drain ~1.1-1.2x)
    # so a noisy round cannot flake; dropping through it means the
    # drain path genuinely regressed.
    assert ratio["reference+drain"] >= 0.95, table.to_text()
