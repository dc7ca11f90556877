"""Static shortest-path routing with deterministic ECMP.

Control plane of the fabric, computed once before the simulation
starts (datacenter fabrics converge routing long before any flow the
experiment cares about):

* :func:`build_routes` BFSes from every destination over the reversed
  graph and records, per ``(node, dst)``, the **sorted tuple of
  equal-cost next hops** (all neighbors one hop closer to ``dst``).
  Neighbor expansion follows :meth:`Topology.neighbors`'s sorted order,
  so the table is a pure function of the topology — no set/dict
  iteration order leaks in.
* :func:`ecmp_next_hop` picks one next hop per flow by hashing the
  5-tuple **plus the switch name** with CRC32.  CRC32 because builtin
  ``hash`` is salted per process (sharded sweeps would route
  differently per worker); the switch name because hashing identically
  at every hop polarizes ECMP (every switch picks the same index and
  half the fabric goes dark — the classic deployment bug).

The hash is per-flow constant, so a flow's path never changes
mid-flight — which is what lets the per-switch classifier stay a
function of ``flow_id`` alone, and what makes the per-flow end-to-end
FIFO audit meaningful.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.net.topology import Topology


@dataclass(frozen=True)
class FiveTuple:
    """Flow identity for ECMP hashing."""

    src: str
    dst: str
    sport: int = 0
    dport: int = 0
    proto: str = "tcp"


class RoutingTable:
    """``(node, dst) -> sorted tuple of equal-cost next hops``."""

    def __init__(self, next_hops: Dict[Tuple[str, str],
                                       Tuple[str, ...]]) -> None:
        self._next_hops = next_hops

    def next_hops(self, node: str, dst: str) -> Tuple[str, ...]:
        if node == dst:
            return ()
        hops = self._next_hops.get((node, dst))
        if hops is None:
            raise ConfigurationError(
                f"no route from {node!r} to {dst!r}")
        return hops


def build_routes(topology: Topology) -> RoutingTable:
    """All-pairs shortest-path next-hop table (hop-count metric).

    One reverse BFS per destination: distance[d] = 0, then any neighbor
    ``n`` of ``v`` with ``distance[n] == distance[v] + 1`` is an
    equal-cost next hop of ``v``.  Hosts are valid destinations AND
    valid transit only as first/last hop (a host never forwards, which
    the BFS encodes by not expanding through hosts).
    """
    table: Dict[Tuple[str, str], Tuple[str, ...]] = {}
    nodes = topology.nodes()
    for dst in nodes:
        distance = {dst: 0}
        frontier = deque([dst])
        while frontier:
            node = frontier.popleft()
            if topology.is_host(node) and node != dst:
                continue  # hosts do not forward transit traffic
            # Reverse edge u -> node exists iff node is u's neighbor.
            for u in nodes:
                if u in distance or node not in topology.neighbors(u):
                    continue
                distance[u] = distance[node] + 1
                frontier.append(u)
        for node in nodes:
            if node == dst or node not in distance:
                continue
            hops = tuple(sorted(
                n for n in topology.neighbors(node)
                if n in distance
                and distance[n] == distance[node] - 1
                and (not topology.is_host(n) or n == dst)))
            if hops:
                table[(node, dst)] = hops
    return RoutingTable(table)


def ecmp_next_hop(candidates: Tuple[str, ...], node: str,
                  flow: FiveTuple, seed: int = 0) -> str:
    """Deterministically pick one of ``candidates`` for ``flow`` at
    ``node`` (CRC32 of seed + switch + 5-tuple)."""
    if not candidates:
        raise ConfigurationError(f"no ECMP candidates at {node!r}")
    if len(candidates) == 1:
        return candidates[0]
    key = (f"{seed}|{node}|{flow.src}|{flow.dst}|{flow.sport}|"
           f"{flow.dport}|{flow.proto}")
    return candidates[zlib.crc32(key.encode()) % len(candidates)]


def flow_path(topology: Topology, routes: RoutingTable,
              flow: FiveTuple, seed: int = 0) -> List[str]:
    """The exact node sequence ``flow`` traverses (src..dst inclusive),
    walking the ECMP choice at every switch.  Used for ideal-FCT
    computation and path-provenance assertions in tests."""
    path = [flow.src]
    node = flow.src
    while node != flow.dst:
        if len(path) > len(topology.nodes()):
            raise ConfigurationError(
                f"routing loop walking {flow.src!r} -> {flow.dst!r}: "
                f"{path}")
        node = ecmp_next_hop(routes.next_hops(node, flow.dst), node,
                             flow, seed=seed)
        path.append(node)
    return path


def path_links(topology: Topology, path: List[str]):
    """The directed links along ``path``."""
    return [topology.link(src, dst)
            for src, dst in zip(path, path[1:])]


def ideal_fct_seconds(topology: Topology, path: List[str],
                      size_bytes: int, mtu_bytes: int) -> float:
    """Empty-fabric flow completion time along ``path``: store-and-
    forward of the first (up to) one-MTU packet across every link, plus
    the remaining bytes streaming at the path's bottleneck rate.  The
    denominator of the slowdown metric."""
    links = path_links(topology, path)
    if not links:
        return 0.0
    head_bytes = min(size_bytes, mtu_bytes)
    ideal = sum(link.delay_s + head_bytes * 8 / link.rate_bps
                for link in links)
    rest = size_bytes - head_bytes
    if rest > 0:
        bottleneck = min(link.rate_bps for link in links)
        ideal += rest * 8 / bottleneck
    return ideal
