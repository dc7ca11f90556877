"""End-to-end flow completion time on a leaf-spine fabric.

The whole point of a programmable packet scheduler is what it does to
*flows*, not packets — so this experiment runs the full
:mod:`repro.net` stack: a leaf-spine fabric of
:class:`~repro.net.switch.FabricSwitch` dataplanes, hosts driving
open-loop Poisson flow arrivals with heavy-tailed sizes
(:mod:`repro.net.workload`), seeded-deterministic ECMP, and a
:class:`~repro.net.fct.FctCollector` reducing deliveries to the
normalized-FCT (slowdown) percentiles that the pFabric / PIAS /
SP-PIFO evaluation lineage reports.

One table row per offered load.  The short/long split (100 KB
threshold) is where scheduling policy is visible: under ``fcfs``
(one logical FIFO per port) short flows queue behind megabyte flows
and their p99 slowdown blows up with load; under a fair queueing
policy (``drr``, ``sfq``, ``wf2q+``) short flows keep near-ideal FCT
because each flow owns a fair share of every hop.  Run the experiment
twice with different ``--algorithm`` values to see the gap.

Sweep mechanics are identical to the other experiments: points are
seeded by index (packet ids AND every workload RNG derive from it), so
``--jobs N`` is byte-identical to sequential, and traced runs shard
with mark-delimited merge.
"""

from __future__ import annotations

import io
from typing import Optional, Sequence, Tuple

from repro.experiments.runner import Table, point_seed, run_sweep
from repro.net.fabric import Fabric
from repro.net.topology import leaf_spine
from repro.net.workload import OpenLoopWorkload, make_size_sampler
from repro.obs import Tracer
from repro.obs.heartbeat import NULL_HEARTBEAT
from repro.sim.packet import reset_packet_ids

#: Offered loads (fraction of host uplink capacity) to sweep.
DEFAULT_LOADS = (0.2, 0.5, 0.8)
#: Default fabric shape: 2 leaves x 2 spines, 2 hosts per leaf.
LEAVES = 2
SPINES = 2
HOSTS_PER_LEAF = 2
#: Shared buffer per switch (KiB).
BUFFER_KIB = 256
#: Flow arrivals stop at this simulated time; the run then drains.
DEFAULT_DURATION = 0.01


def build_fct_fabric(load: float, *, workload: str = "pareto",
                     leaves: int = LEAVES, spines: int = SPINES,
                     hosts_per_leaf: int = HOSTS_PER_LEAF,
                     algorithm: str = "drr",
                     drop_policy: str = "tail-drop",
                     buffer_kib: int = BUFFER_KIB,
                     duration: float = DEFAULT_DURATION,
                     backend: Optional[str] = None,
                     seed: int = 0,
                     tracer=None, metrics=None) -> Fabric:
    """Build the leaf-spine fabric and start every host's open-loop
    workload (arrivals stop at ``duration``; run ``fabric.sim`` past it
    to drain).  ``seed`` feeds ECMP hashing and every per-host RNG."""
    topology = leaf_spine(leaves=leaves, spines=spines,
                          hosts_per_leaf=hosts_per_leaf)
    fabric = Fabric(topology, algorithm=algorithm, backend=backend,
                    buffer_bytes=buffer_kib * 1024,
                    drop_policy=drop_policy, seed=seed,
                    tracer=tracer, metrics=metrics)
    for host in topology.hosts:
        sampler = make_size_sampler(
            workload, rng=None)  # rng built by the workload per host
        generator = OpenLoopWorkload(fabric, host, load=load,
                                     sampler=sampler,
                                     end_time=duration, seed=seed)
        # Per-host sampler RNG: reuse the workload's own seeded RNG so
        # sizes are a pure function of (seed, host) too.
        sampler.rng = generator.rng
        generator.start(at=0.0)
    return fabric


def _fct_point(spec: Tuple, tracer=None,
               metrics=None) -> Tuple[dict, str]:
    """One FCT sweep point (module-level: picklable for ``--jobs``)."""
    (index, load, workload, leaves, spines, hosts_per_leaf, algorithm,
     drop_policy, buffer_kib, duration, backend, traced) = spec
    seed = point_seed(index)
    reset_packet_ids(seed)
    sink = None
    if tracer is None and traced:
        sink = io.StringIO()
        tracer = Tracer(capacity=0, sink=sink)
    fabric = build_fct_fabric(load, workload=workload, leaves=leaves,
                              spines=spines,
                              hosts_per_leaf=hosts_per_leaf,
                              algorithm=algorithm,
                              drop_policy=drop_policy,
                              buffer_kib=buffer_kib, duration=duration,
                              backend=backend,
                              seed=seed, tracer=tracer, metrics=metrics)
    fabric.sim.run()
    conservation = fabric.conservation()
    if not conservation["balanced"]:
        raise AssertionError(
            f"fabric conservation violated at load={load}: "
            f"{conservation}")
    reordered = fabric.collector.reordered_total()
    if reordered:
        raise AssertionError(
            f"{reordered} reordered deliveries at load={load}: ECMP "
            "must be per-flow constant")
    stats = dict(fabric.collector.slowdown_stats())
    stats["drops"] = conservation["drops"]
    return stats, sink.getvalue() if sink is not None else ""


def fct_table(loads: Sequence[float] = DEFAULT_LOADS,
              workload: str = "pareto", leaves: int = LEAVES,
              spines: int = SPINES,
              hosts_per_leaf: int = HOSTS_PER_LEAF,
              algorithm: str = "drr",
              drop_policy: str = "tail-drop",
              buffer_kib: int = BUFFER_KIB,
              duration: float = DEFAULT_DURATION,
              backend: Optional[str] = None,
              tracer=None, metrics=None,
              jobs: int = 1, heartbeat=None) -> Table:
    """FCT slowdown vs offered load on a leaf-spine fabric.

    Slowdown = measured FCT / ideal FCT along the flow's routed path;
    p50/p99 reported for all flows and split short (<= 100 KB) vs
    long.  ``--jobs`` shards loads over processes byte-identically;
    ``backend`` is a result-preserving substitution, same as every
    other experiment.
    """
    hosts = leaves * hosts_per_leaf
    table = Table(
        title=(f"FCT on leaf-spine {leaves}x{spines} "
               f"({hosts} hosts), workload={workload}, "
               f"algorithm={algorithm}, policy={drop_policy}"),
        headers=["load", "flows", "done", "p50", "p99",
                 "short_p50", "short_p99", "long_p50", "long_p99",
                 "drops"],
    )
    specs = [(index, load, workload, leaves, spines, hosts_per_leaf,
              algorithm, drop_policy, buffer_kib, duration, backend,
              tracer is not None)
             for index, load in enumerate(loads)]
    sharded = jobs > 1 and metrics is None
    if sharded:
        outcomes = run_sweep(_fct_point, specs, jobs=jobs,
                             heartbeat=heartbeat)
        if tracer is not None:
            for spec, (_, lines) in zip(specs, outcomes):
                tracer.mark(0.0, "fct.sweep", load=spec[1],
                            algorithm=algorithm)
                tracer.absorb_jsonl(lines.splitlines())
    else:
        pulse = heartbeat if heartbeat is not None else NULL_HEARTBEAT
        pulse.begin(len(specs), jobs=1)
        outcomes = []
        for spec in specs:
            if tracer is not None:
                tracer.mark(0.0, "fct.sweep", load=spec[1],
                            algorithm=algorithm)
            with pulse.point(spec[0]):
                outcomes.append(_fct_point(spec, tracer=tracer,
                                           metrics=metrics))
        pulse.finish()
    for spec, (stats, _) in zip(specs, outcomes):
        table.add_row(spec[1], stats["flows"], stats["completed"],
                      round(stats["all_p50"], 3),
                      round(stats["all_p99"], 3),
                      round(stats["short_p50"], 3),
                      round(stats["short_p99"], 3),
                      round(stats["long_p50"], 3),
                      round(stats["long_p99"], 3),
                      stats["drops"])
    table.add_note("slowdown = FCT / ideal FCT on the flow's routed "
                   "path; short <= 100 KB.  Fabric-wide conservation "
                   "and zero reordering asserted per row.  Compare "
                   "--algorithm fcfs vs drr/sfq to see fair queueing "
                   "protect short-flow p99.")
    return table
