"""Flow-completion-time collection.

The end-to-end figure of merit: for every flow the fabric carries, the
time from the flow *opening* at its source host to its last byte
arriving at the destination, normalized by the ideal (empty-fabric)
completion time along the flow's actual routed path — the *slowdown*
(a.k.a. stretch / normalized FCT) every datacenter scheduling paper
reports.  Slowdown 1.0 means the fabric added nothing on top of
store-and-forward + serialization; the gap between p50 and p99, split
by flow size, is where scheduling policy shows up.

The collector also accumulates per-hop residence (time between a
packet entering a node and its transmission completing there, summed
per node) — the "where did the latency go" view — and counts
end-to-end reordering (a delivered packet with a lower packet id than
its predecessor), which the routing determinism contract says must be
zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from repro.analysis.quantiles import exact_quantile
from repro.sim.packet import Packet

#: Flows at or below this many bytes count as "short" in the split
#: tables (the conventional 100 KB datacenter threshold).
SHORT_FLOW_BYTES = 100_000


@dataclass
class FlowRecord:
    """One flow's lifecycle as the collector sees it."""

    flow_id: Hashable
    src: str
    dst: str
    size_bytes: int
    start_t: float
    ideal_s: float
    path: List[str] = field(default_factory=list)
    packets: int = 0
    bytes_delivered: int = 0
    packets_delivered: int = 0
    finish_t: Optional[float] = None
    reordered: int = 0
    _last_packet_id: int = -1

    @property
    def completed(self) -> bool:
        return self.finish_t is not None

    @property
    def fct_s(self) -> Optional[float]:
        if self.finish_t is None:
            return None
        return self.finish_t - self.start_t

    @property
    def slowdown(self) -> Optional[float]:
        fct = self.fct_s
        if fct is None or self.ideal_s <= 0:
            return None
        return fct / self.ideal_s

    @property
    def short(self) -> bool:
        return self.size_bytes <= SHORT_FLOW_BYTES


class FctCollector:
    """Registry of flows + delivery bookkeeping + per-hop residence."""

    def __init__(self) -> None:
        self.flows: Dict[Hashable, FlowRecord] = {}
        #: node -> {"packets", "total_s", "max_s"} residence aggregate.
        self.residence: Dict[str, Dict[str, float]] = {}

    # -- lifecycle ------------------------------------------------------
    def flow_started(self, flow_id: Hashable, src: str, dst: str,
                     size_bytes: int, now: float, ideal_s: float,
                     path: Optional[List[str]] = None,
                     packets: int = 0) -> FlowRecord:
        if flow_id in self.flows:
            raise ValueError(f"duplicate flow id {flow_id!r}")
        record = FlowRecord(flow_id=flow_id, src=src, dst=dst,
                            size_bytes=size_bytes, start_t=now,
                            ideal_s=ideal_s, path=list(path or ()),
                            packets=packets)
        self.flows[flow_id] = record
        return record

    def packet_delivered(self, packet: Packet, now: float) -> None:
        record = self.flows.get(packet.flow_id)
        if record is None:
            return  # un-collected flow (e.g. raw generator traffic)
        record.bytes_delivered += packet.size_bytes
        record.packets_delivered += 1
        if packet.packet_id < record._last_packet_id:
            record.reordered += 1
        record._last_packet_id = max(record._last_packet_id,
                                     packet.packet_id)
        if record.finish_t is None \
                and record.bytes_delivered >= record.size_bytes:
            record.finish_t = now

    def note_residence(self, node: str, seconds: float) -> None:
        entry = self.residence.get(node)
        if entry is None:
            entry = self.residence[node] = {
                "packets": 0, "total_s": 0.0, "max_s": 0.0}
        entry["packets"] += 1
        entry["total_s"] += seconds
        entry["max_s"] = max(entry["max_s"], seconds)

    # -- reporting ------------------------------------------------------
    def completed(self) -> List[FlowRecord]:
        return [record for record in self.flows.values()
                if record.completed]

    def reordered_total(self) -> int:
        return sum(record.reordered for record in self.flows.values())

    def slowdown_stats(self) -> Dict[str, float]:
        """p50/p99 slowdown for all / short / long completed flows."""
        completed = self.completed()
        stats: Dict[str, float] = {
            "flows": len(self.flows),
            "completed": len(completed),
        }
        groups = {
            "all": [r.slowdown for r in completed
                    if r.slowdown is not None],
            "short": [r.slowdown for r in completed
                      if r.short and r.slowdown is not None],
            "long": [r.slowdown for r in completed
                     if not r.short and r.slowdown is not None],
        }
        for name, slowdowns in groups.items():
            slowdowns.sort()
            stats[f"{name}_flows"] = len(slowdowns)
            stats[f"{name}_p50"] = exact_quantile(slowdowns, 0.50)
            stats[f"{name}_p99"] = exact_quantile(slowdowns, 0.99)
        return stats
