"""Fig. 11: rate-limit enforcement accuracy.

"We sample a random level-2 node, and show that PIEO scheduler very
accurately enforces the rate-limit on that node."  The experiment sweeps
the sampled node's configured rate limit and reports achieved vs
configured rate (all other nodes keep the default assignment).

The sweep runs through :func:`repro.experiments.runner.run_sweep`: each
point is an independent simulation seeded from its index
(:func:`~repro.experiments.runner.point_seed`), so ``jobs > 1`` shards
points across worker processes with output byte-identical to the
sequential run — including the ``mark``-delimited trace stream, which
sharded workers serialize locally and the parent re-emits in point
order.
"""

from __future__ import annotations

import io
from typing import Sequence, Tuple

from repro.experiments.hier_common import (NUM_NODES, default_node_rates,
                                           run_hierarchy)
from repro.experiments.runner import Table, point_seed, run_sweep
from repro.obs import Tracer
from repro.obs.runtime import NULL_HEARTBEAT
from repro.sim.packet import reset_packet_ids

#: Sampled node index (deterministic stand-in for the paper's "random").
SAMPLED_NODE = 6

DEFAULT_SWEEP_GBPS = (0.5, 1.0, 2.0, 4.0, 6.0, 8.0)

#: Reserved sweep-point index for the companion all-nodes run, so its
#: packet-id namespace never collides with the sweep's points inside a
#: shared trace stream.
_ALL_NODES_POINT = 1000


def _rate_limit_point(spec: Tuple, tracer=None,
                      metrics=None) -> Tuple[float, str]:
    """One fig11 sweep point.  Module-level so ``--jobs`` can pickle it
    into a worker process.

    Returns ``(achieved_bps, trace_jsonl)``.  When running sharded (no
    shared tracer passed) with tracing requested, the point's events are
    serialized into ``trace_jsonl`` for the parent to merge; otherwise
    the string is empty.
    """
    index, target, node_index, duration, traced = spec
    reset_packet_ids(point_seed(index))
    sink = None
    if tracer is None and traced:
        sink = io.StringIO()
        tracer = Tracer(capacity=0, sink=sink)
    rates = default_node_rates()
    rates[node_index] = target
    run = run_hierarchy(rates, duration=duration, tracer=tracer,
                        metrics=metrics)
    achieved = run.node_rates_bps.get(f"n{node_index}", 0.0)
    return achieved, sink.getvalue() if sink is not None else ""


def rate_limit_table(sweep_gbps: Sequence[float] = DEFAULT_SWEEP_GBPS,
                     duration: float = 0.02,
                     node_index: int = SAMPLED_NODE,
                     tracer=None, metrics=None,
                     jobs: int = 1, heartbeat=None) -> Table:
    """Fig. 11's sweep: configured vs achieved rate on one node.

    ``tracer``/``metrics`` observe every simulation in the sweep; a
    ``mark`` event delimits each sweep point in the trace stream.
    ``jobs`` shards sweep points over processes and leaves every result
    byte-identical.  (``metrics`` aggregation is in-process, so a
    metrics-observed sweep always runs sequentially.)  ``heartbeat``
    (:class:`repro.obs.runtime.SweepHeartbeat`) reports sweep liveness
    on stderr/trace without touching results.
    """
    table = Table(
        title=(f"Fig. 11: rate-limit enforcement on node n{node_index} "
               "(Token Bucket at level 2)"),
        headers=["configured_gbps", "achieved_gbps", "error_pct"],
    )
    specs = [(index, target, node_index, duration, tracer is not None)
             for index, target in enumerate(sweep_gbps)]
    sharded = jobs > 1 and metrics is None
    if sharded:
        outcomes = run_sweep(_rate_limit_point, specs, jobs=jobs,
                             heartbeat=heartbeat)
        if tracer is not None:
            for spec, (_, lines) in zip(specs, outcomes):
                tracer.mark(0.0, "fig11.sweep", configured_gbps=spec[1],
                            node=f"n{node_index}")
                tracer.absorb_jsonl(lines.splitlines())
    else:
        pulse = heartbeat if heartbeat is not None else NULL_HEARTBEAT
        pulse.begin(len(specs), jobs=1)
        outcomes = []
        for spec in specs:
            if tracer is not None:
                tracer.mark(0.0, "fig11.sweep", configured_gbps=spec[1],
                            node=f"n{node_index}")
            with pulse.point(spec[0]):
                outcomes.append(_rate_limit_point(spec, tracer=tracer,
                                                  metrics=metrics))
        pulse.finish()
    worst = 0.0
    for spec, (achieved_bps, _) in zip(specs, outcomes):
        target = spec[1]
        achieved = achieved_bps / 1e9
        error = abs(achieved - target) / target * 100.0
        worst = max(worst, error)
        table.add_row(target, round(achieved, 4), round(error, 3))
    table.add_note(f"worst-case enforcement error {worst:.3f}% across the "
                   f"sweep ({NUM_NODES} nodes, 40 Gbps link); the paper "
                   "reports 'very accurate' enforcement.")
    return table


def all_nodes_table(duration: float = 0.02,
                    tracer=None, metrics=None) -> Table:
    """Enforcement across *all* ten nodes simultaneously."""
    reset_packet_ids(point_seed(_ALL_NODES_POINT))
    rates = default_node_rates()
    if tracer is not None:
        tracer.mark(0.0, "fig11.all_nodes")
    run = run_hierarchy(rates, duration=duration,
                        tracer=tracer, metrics=metrics)
    table = Table(
        title="Fig. 11 (companion): simultaneous enforcement, all nodes",
        headers=["node", "configured_gbps", "achieved_gbps", "error_pct"],
    )
    for index, target in enumerate(rates):
        achieved = run.node_rates_bps.get(f"n{index}", 0.0) / 1e9
        error = abs(achieved - target) / target * 100.0
        table.add_row(f"n{index}", target, round(achieved, 4),
                      round(error, 3))
    return table
