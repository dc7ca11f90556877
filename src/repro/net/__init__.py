"""Multi-switch network fabric built on the single-switch dataplane.

The paper evaluates one PIEO scheduler block per output link; a
datacenter judges scheduling policy by what it buys *applications*
across a fabric of such switches (flow completion time under realistic
heavy-tailed workloads — the standard PIFO/SP-PIFO evaluation).  This
package composes the existing layers into that setting:

* :class:`~repro.net.topology.Topology` — hosts, switches, directed
  links with rate and propagation delay, plus the canonical builders
  (:func:`~repro.net.topology.leaf_spine`,
  :func:`~repro.net.topology.fat_tree`);
* :mod:`~repro.net.routing` — static shortest-path next-hop tables with
  seeded, process-stable ECMP 5-tuple hashing;
* :class:`~repro.net.switch.FabricSwitch` — one
  :class:`~repro.sim.dataplane.Dataplane` per switch (one port per
  outgoing link, shared buffer, per-port PIEO scheduler) with TTL /
  hop-count / path-provenance handling;
* :class:`~repro.net.host.Host` — endpoints that generate *flows*
  (open-loop Poisson arrivals, sizes from the seeded samplers in
  :mod:`repro.sim.generators`) and serialize them through a NIC port;
* :class:`~repro.net.fct.FctCollector` — per-flow completion time,
  slowdown against the ideal (empty-fabric) FCT, per-hop residence;
* :class:`~repro.net.fabric.Fabric` — the orchestration: every node on
  ONE shared :class:`~repro.sim.events.Simulator`, per-node
  ``switch=``-labelled tracer views, deterministic end to end.

Everything is deterministic by construction: routing ties break on
sorted names, ECMP hashes with CRC32 (process-stable), workloads draw
from per-host seeded RNGs, and all nodes share one simulator clock —
so fabric sweeps shard across processes byte-identically.
"""

from repro._lazy import lazy_namespace

_EXPORTS = {
    "repro.net.topology": ("Topology", "leaf_spine", "fat_tree"),
    "repro.net.routing": ("RoutingTable", "build_routes", "ecmp_next_hop"),
    "repro.net.switch": ("FabricSwitch",),
    "repro.net.host": ("Host",),
    "repro.net.fabric": ("Fabric",),
    "repro.net.fct": ("FctCollector", "FlowRecord"),
    "repro.net.workload": ("WEB_SEARCH_CDF", "DATA_MINING_CDF",
                           "OpenLoopWorkload", "make_size_sampler"),
}

__all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
