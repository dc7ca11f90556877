"""Multi-port incast: shared-buffer contention under oversubscription.

The paper's hardware serves one output link per scheduler (Fig. 1); a
switch is N of those blocks around a shared packet memory.  This
experiment exercises that composition — the
:class:`~repro.sim.dataplane.Dataplane` — with the canonical workload
that stresses a shared buffer: an *incast*, where many senders converge
on one "hot" output port while the remaining ports run at moderate
load.  The hot port's offered load is ~2x its link rate, so the shared
memory fills and the admission stage must drop; sweeping the buffer
size shows how much memory it takes to ride out the burst, and the
drop-policy column shows where the pain lands (tail-drop punishes
arrivals, longest-queue push-out punishes the hog, RED sheds early).

Like fig11/fig12 the sweep goes through
:func:`repro.experiments.runner.run_sweep`: points are seeded from
their index and ``jobs > 1`` shards them over processes with output
byte-identical to the sequential run (mark-delimited trace merge
included).  Packet conservation (arrivals == departures + drops +
residue) is asserted on every point.
"""

from __future__ import annotations

import io
from typing import Optional, Sequence, Tuple

from repro.experiments.runner import Table, point_seed, run_sweep
from repro.obs import Tracer
from repro.obs.runtime import NULL_HEARTBEAT
from repro.sched.framework import PieoScheduler
from repro.sched.registry import make_algorithm
from repro.sim.buffer import BufferManager
from repro.sim.classifier import StaticClassifier
from repro.sim.dataplane import Dataplane
from repro.sim.events import Simulator
from repro.sim.flow import FlowQueue
from repro.sim.generators import CbrGenerator
from repro.sim.link import gbps
from repro.sim.packet import MTU_BYTES, reset_packet_ids

#: Per-port link rate (each port gets its own wire).
LINK_GBPS = 10.0
#: Default shared-memory sizes to sweep (KiB).
DEFAULT_BUFFER_KIB = (8, 16, 32, 64, 128)
#: Senders converging on the hot port (2x oversubscription at 2.5 Gbps
#: each against the 10 Gbps link) and per cold port (0.5 load).
HOT_SENDERS = 8
COLD_SENDERS = 2
SENDER_GBPS = 2.5
HOT_PORT = "p0"


def build_incast(sim: Simulator, buffer_bytes: int,
                 ports: int = 4, drop_policy: str = "tail-drop",
                 algorithm: str = "drr", duration: float = 0.002,
                 backend: Optional[str] = None,
                 tracer=None, metrics=None) -> Dataplane:
    """Wire the incast topology onto ``sim`` and start its generators.

    ``ports`` output ports (ids ``p0..``), each with a 10 Gbps link and
    its own scheduler running ``algorithm``; flow ``p<i>.f<j>`` is
    statically classified to port ``p<i>``.  Port ``p0`` is the hot
    port (8 senders, 2x oversubscribed); every other port carries 2
    senders (0.5 load).  All ports share one ``buffer_bytes`` memory
    under ``drop_policy``.  ``backend`` selects each scheduler's
    ordered-list engine (:mod:`repro.core.backends`; None means the
    registry default) — a result-preserving substitution.
    """
    buffer = BufferManager(capacity_bytes=buffer_bytes,
                           policy=drop_policy,
                           tracer=tracer, metrics=metrics)
    port_ids = [f"p{index}" for index in range(ports)]
    flows = {port_id: [f"{port_id}.f{sender}" for sender in range(
        HOT_SENDERS if port_id == HOT_PORT else COLD_SENDERS)]
        for port_id in port_ids}
    mapping = {flow_id: port_id for port_id, ids in flows.items()
               for flow_id in ids}
    dataplane = Dataplane(sim, classifier=StaticClassifier(mapping),
                          buffer=buffer, tracer=tracer,
                          metrics=metrics)
    for port_id in port_ids:

        def make_scheduler(port_tracer, port_metrics):
            return PieoScheduler(make_algorithm(algorithm),
                                 link_rate_bps=gbps(LINK_GBPS),
                                 backend=backend,
                                 tracer=port_tracer,
                                 metrics=port_metrics)

        dataplane.add_port(port_id, make_scheduler=make_scheduler,
                           link_rate_bps=gbps(LINK_GBPS))
        for sender, flow_id in enumerate(flows[port_id]):
            dataplane.ports[port_id].scheduler.add_flow(
                FlowQueue(flow_id))
            generator = CbrGenerator(sim, flow_id,
                                     dataplane.arrival_sink,
                                     rate_bps=gbps(SENDER_GBPS),
                                     size_bytes=MTU_BYTES,
                                     end_time=duration)
            # Stagger starts one MTU-time apart so the hot port's
            # senders don't arrive in one degenerate burst.
            generator.start(sender * MTU_BYTES * 8
                            / gbps(LINK_GBPS))
    return dataplane


def _incast_point(spec: Tuple, tracer=None,
                  metrics=None) -> Tuple[dict, str]:
    """One incast sweep point (module-level: picklable for ``--jobs``).

    Returns ``(stats_dict, trace_jsonl)``; the trace string is filled
    only when running sharded with tracing requested (the parent
    merges it).
    """
    (index, buffer_kib, ports, drop_policy, algorithm, backend,
     duration, traced) = spec
    reset_packet_ids(point_seed(index))
    sink = None
    if tracer is None and traced:
        sink = io.StringIO()
        tracer = Tracer(capacity=0, sink=sink)
    sim = Simulator(tracer=tracer, metrics=metrics)
    dataplane = build_incast(sim, buffer_bytes=buffer_kib * 1024,
                             ports=ports, drop_policy=drop_policy,
                             algorithm=algorithm, duration=duration,
                             backend=backend,
                             tracer=tracer, metrics=metrics)
    sim.run_until(duration)
    conservation = dataplane.conservation()
    if not conservation["balanced"]:
        raise AssertionError(
            f"packet conservation violated at buffer={buffer_kib}KiB: "
            f"{conservation}")
    buffer = dataplane.buffer
    hot = dataplane.ports[HOT_PORT]
    stats = {
        "arrivals": conservation["arrivals"],
        "delivered": conservation["departures"],
        "drops": conservation["drops"],
        "residue": conservation["residue"],
        "hot_drops": buffer.drops_by_port.get(HOT_PORT, 0),
        "evicted": buffer.evicted,
        "hot_gbps": len(hot.recorder) * MTU_BYTES * 8
        / duration / 1e9,
    }
    return stats, sink.getvalue() if sink is not None else ""


def incast_table(buffer_kib_sweep: Sequence[int] = DEFAULT_BUFFER_KIB,
                 ports: int = 4, drop_policy: str = "tail-drop",
                 algorithm: str = "drr", duration: float = 0.002,
                 backend: Optional[str] = None,
                 tracer=None, metrics=None,
                 jobs: int = 1, heartbeat=None) -> Table:
    """Incast sweep: drops vs shared-buffer size on a 4-port dataplane.

    ``tracer``/``metrics`` observe every simulation in the sweep (drop
    events carry ``port`` labels; metric names are scoped
    ``port.<id>.*``); a ``mark`` event delimits each sweep point in the
    trace stream.  ``backend`` selects the per-port schedulers'
    ordered-list engine and ``jobs`` shards sweep points over
    processes — both leave every result byte-identical.  (``metrics``
    aggregation is in-process, so a metrics-observed sweep always runs
    sequentially.)
    """
    total = HOT_SENDERS + COLD_SENDERS * (ports - 1)
    table = Table(
        title=(f"Incast: {HOT_SENDERS} senders into port {HOT_PORT} "
               f"(2x oversubscribed) on a {ports}-port dataplane, "
               f"{total} flows, policy={drop_policy}, "
               f"algorithm={algorithm}"),
        headers=["buffer_kib", "arrivals", "delivered", "drops",
                 "hot_drops", "evicted", "hot_gbps", "drop_pct"],
    )
    specs = [(index, buffer_kib, ports, drop_policy, algorithm,
              backend, duration, tracer is not None)
             for index, buffer_kib in enumerate(buffer_kib_sweep)]
    sharded = jobs > 1 and metrics is None
    if sharded:
        outcomes = run_sweep(_incast_point, specs, jobs=jobs,
                             heartbeat=heartbeat)
        if tracer is not None:
            for spec, (_, lines) in zip(specs, outcomes):
                tracer.mark(0.0, "incast.sweep", buffer_kib=spec[1],
                            drop_policy=drop_policy)
                tracer.absorb_jsonl(lines.splitlines())
    else:
        pulse = heartbeat if heartbeat is not None else NULL_HEARTBEAT
        pulse.begin(len(specs), jobs=1)
        outcomes = []
        for spec in specs:
            if tracer is not None:
                tracer.mark(0.0, "incast.sweep", buffer_kib=spec[1],
                            drop_policy=drop_policy)
            with pulse.point(spec[0]):
                outcomes.append(_incast_point(spec, tracer=tracer,
                                              metrics=metrics))
        pulse.finish()
    for spec, (stats, _) in zip(specs, outcomes):
        drop_pct = (100.0 * stats["drops"] / stats["arrivals"]
                    if stats["arrivals"] else 0.0)
        table.add_row(spec[1], stats["arrivals"], stats["delivered"],
                      stats["drops"], stats["hot_drops"],
                      stats["evicted"], round(stats["hot_gbps"], 4),
                      round(drop_pct, 2))
    table.add_note("hot_drops = drops charged to the oversubscribed "
                   "port; conservation (arrivals == delivered + drops "
                   "+ residue) is asserted per row.  Larger buffers "
                   "absorb the incast; the hot link tops out at "
                   f"{LINK_GBPS} Gbps regardless.")
    return table
