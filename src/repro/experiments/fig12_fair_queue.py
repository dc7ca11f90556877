"""Fig. 12: fair-queue enforcement within a level-2 node.

"For each rate-limit value assigned to the chosen level-2 node, PIEO
scheduler very accurately enforces fair queuing across all the flows
within that level-2 node" — WF2Q+ at level 1 splits the node's Token
Bucket rate equally (or by weight) across its ten flows.

Like fig11, the sweep goes through
:func:`repro.experiments.runner.run_sweep`: points are seeded from
their index and ``jobs > 1`` shards them over processes with output
byte-identical to the sequential run (mark-delimited trace merge
included).
"""

from __future__ import annotations

import io
from typing import List, Optional, Sequence, Tuple

from repro.analysis.fairness import jains_index
from repro.experiments.fig11_rate_limit import SAMPLED_NODE
from repro.experiments.hier_common import (FLOWS_PER_NODE,
                                           default_node_rates,
                                           run_hierarchy)
from repro.experiments.runner import Table, point_seed, run_sweep
from repro.obs import Tracer
from repro.obs.heartbeat import NULL_HEARTBEAT
from repro.sim.packet import reset_packet_ids

DEFAULT_SWEEP_GBPS = (0.5, 1.0, 2.0, 4.0, 8.0)


def _fair_queue_point(spec: Tuple, tracer=None,
                      metrics=None) -> Tuple[List[float], str]:
    """One fig12 sweep point (module-level: picklable for ``--jobs``).

    Returns ``(per_flow_gbps_sorted_by_flow_id, trace_jsonl)``; the
    trace string is filled only when running sharded with tracing
    requested (the parent merges it).
    """
    index, target, node_index, duration, flow_weights, traced = spec
    reset_packet_ids(point_seed(index))
    sink = None
    if tracer is None and traced:
        sink = io.StringIO()
        tracer = Tracer(capacity=0, sink=sink)
    rates = default_node_rates()
    rates[node_index] = target
    run = run_hierarchy(rates, duration=duration,
                        flow_weights=flow_weights,
                        tracer=tracer, metrics=metrics)
    flow_rates = [rate / 1e9 for flow_id, rate
                  in sorted(run.flow_rates_bps.items())
                  if flow_id.startswith(f"n{node_index}.")]
    return flow_rates, sink.getvalue() if sink is not None else ""


def fair_queue_table(sweep_gbps: Sequence[float] = DEFAULT_SWEEP_GBPS,
                     duration: float = 0.02,
                     node_index: int = SAMPLED_NODE,
                     flow_weights: Optional[List[float]] = None,
                     tracer=None, metrics=None,
                     jobs: int = 1, heartbeat=None) -> Table:
    """Fig. 12's sweep: per-flow shares inside the sampled node.

    ``tracer``/``metrics`` observe every simulation in the sweep; a
    ``mark`` event delimits each sweep point in the trace stream.
    ``jobs`` shards sweep points over processes and leaves every result
    byte-identical.  (``metrics`` aggregation is in-process, so a
    metrics-observed sweep always runs sequentially.)
    """
    weighted = flow_weights is not None
    table = Table(
        title=(f"Fig. 12: fair-queue enforcement inside node "
               f"n{node_index} (WF2Q+ at level 1"
               f"{', weighted' if weighted else ''})"),
        headers=["node_rate_gbps", "expected_per_flow_gbps",
                 "min_flow_gbps", "max_flow_gbps", "jain_index"],
    )
    specs = [(index, target, node_index, duration, flow_weights,
              tracer is not None)
             for index, target in enumerate(sweep_gbps)]
    sharded = jobs > 1 and metrics is None
    if sharded:
        outcomes = run_sweep(_fair_queue_point, specs, jobs=jobs,
                             heartbeat=heartbeat)
        if tracer is not None:
            for spec, (_, lines) in zip(specs, outcomes):
                tracer.mark(0.0, "fig12.sweep", node_rate_gbps=spec[1],
                            node=f"n{node_index}")
                tracer.absorb_jsonl(lines.splitlines())
    else:
        pulse = heartbeat if heartbeat is not None else NULL_HEARTBEAT
        pulse.begin(len(specs), jobs=1)
        outcomes = []
        for spec in specs:
            if tracer is not None:
                tracer.mark(0.0, "fig12.sweep", node_rate_gbps=spec[1],
                            node=f"n{node_index}")
            with pulse.point(spec[0]):
                outcomes.append(_fair_queue_point(spec, tracer=tracer,
                                                  metrics=metrics))
        pulse.finish()
    for spec, (flow_rates, _) in zip(specs, outcomes):
        target = spec[1]
        if weighted:
            weights = [flow_weights[i % len(flow_weights)]
                       for i in range(FLOWS_PER_NODE)]
            normalized = [rate / weight
                          for rate, weight in zip(flow_rates, weights)]
            expected = target / sum(weights)
            table.add_row(target, round(expected, 4),
                          round(min(normalized), 4),
                          round(max(normalized), 4),
                          round(jains_index(normalized), 5))
        else:
            expected = target / FLOWS_PER_NODE
            table.add_row(target, round(expected, 4),
                          round(min(flow_rates), 4),
                          round(max(flow_rates), 4),
                          round(jains_index(flow_rates), 5))
    table.add_note("Jain's index 1.0 = perfectly fair; min/max per-flow "
                   "rates should bracket the expected equal share "
                   "tightly." + (" Weighted rows normalize rate/weight."
                                 if weighted else ""))
    return table
