"""Runtime-telemetry overhead: uninstrumented vs null vs live profiler.

Measures the fig12 workload (default configuration) in three configurations:

* ``bare`` — no profiler anywhere near the call;
* ``null`` — the workload wrapped in
  :data:`repro.obs.runtime.NULL_RUNTIME_PROFILER` phases (the default
  path when nobody passes ``--profile-runtime``);
* ``live`` — a sampling :class:`repro.obs.runtime.RuntimeProfiler`
  running at the default interval.

The guarantee under regression test: the null path costs < 5% wall time
versus bare.  (The live path is reported for scale but not gated —
sampling costs what the interval says it costs, and it runs on another
thread anyway.)

Results land in ``bench_results/runtime_overhead.txt``.
"""

import time

from repro.experiments.hier_common import default_node_rates, run_hierarchy
from repro.experiments.runner import Table
from repro.obs.runtime import NULL_RUNTIME_PROFILER, RuntimeProfiler
from repro.sim.packet import reset_packet_ids

DURATION = 0.003
ROUNDS = 5  # best-of to damp scheduler noise
MAX_NULL_OVERHEAD_PCT = 5.0


def _workload() -> None:
    reset_packet_ids(0)
    run_hierarchy(default_node_rates(), duration=DURATION)


def _bare() -> float:
    start = time.perf_counter()
    _workload()
    return time.perf_counter() - start


def _null() -> float:
    profiler = NULL_RUNTIME_PROFILER
    start = time.perf_counter()
    with profiler, profiler.phase("hier"):
        _workload()
    return time.perf_counter() - start


def _live() -> float:
    profiler = RuntimeProfiler()
    start = time.perf_counter()
    with profiler, profiler.phase("hier"):
        _workload()
    return time.perf_counter() - start


def _interleaved_best() -> dict:
    """Best wall time per mode, rounds interleaved bare/null/live so
    slow drift in host speed hits every mode equally."""
    _workload()  # warm caches/allocators outside the timed region
    best: dict = {}
    for _ in range(ROUNDS):
        for mode, runner in (("bare", _bare), ("null", _null),
                             ("live", _live)):
            wall = runner()
            if mode not in best or wall < best[mode]:
                best[mode] = wall
    return best


def _overhead_table() -> Table:
    table = Table(
        title=(f"Runtime-profiler overhead: fig12 default config "
               f"({DURATION * 1e3:.0f} ms sim), best of {ROUNDS} "
               f"interleaved rounds"),
        headers=["mode", "wall_s", "delta_vs_bare_pct"],
    )
    best = _interleaved_best()
    bare = best["bare"]
    for mode in ("bare", "null", "live"):
        delta = (best[mode] - bare) / bare * 100.0
        table.add_row(mode, round(best[mode], 4), round(delta, 1))
    table.add_note("null is the default configuration (no "
                   "--profile-runtime): one no-op context-manager "
                   "round-trip per phase site, zero threads — the "
                   "delta is noise.  live pays for a daemon sampler "
                   "thread reading sys._current_frames() every "
                   "interval.")
    return table


def test_runtime_overhead_table(benchmark, save_table):
    table = benchmark.pedantic(_overhead_table, rounds=1, iterations=1)
    save_table("runtime_overhead", table)
    deltas = {row[0]: row[2] for row in table.rows}
    assert deltas["null"] < MAX_NULL_OVERHEAD_PCT, (
        f"null-path runtime profiler costs more than "
        f"{MAX_NULL_OVERHEAD_PCT}% wall; table:\n" + table.to_text())
