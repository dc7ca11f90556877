"""Network topology: hosts, switches, directed links.

A :class:`Topology` is a directed graph whose nodes are *hosts*
(endpoints: generate and absorb flows) and *switches* (forwarding
elements: one :class:`~repro.sim.dataplane.Dataplane` each).  Every
edge is a :class:`NetLink` with a rate and a propagation delay;
``add_link`` adds both directions by default, each direction an
independent wire (full duplex).

Builders cover the canonical evaluation fabrics:

* :func:`dumbbell` — two access switches joined by one core link, the
  classic congestion funnel;
* :func:`leaf_spine` — every leaf connects to every spine (2-tier Clos),
  the standard datacenter FCT topology;
* :func:`fat_tree` — the k-ary 3-tier fat-tree (Al-Fahad et al.):
  k pods of k/2 edge + k/2 aggregation switches and (k/2)^2 cores,
  k^3/4 hosts.

Node naming is deliberately boring and sorted-stable (``h0``, ``l0``,
``s0``…) because routing breaks ties lexicographically — the names ARE
part of the determinism contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.errors import ConfigurationError
from repro.sim.link import gbps

#: Default propagation delay per link: 1 us (a few hundred meters of
#: fiber, the usual intra-datacenter figure).
DEFAULT_DELAY_S = 1e-6


@dataclass(frozen=True)
class NetLink:
    """One directed wire: ``src -> dst`` at ``rate_bps`` with
    ``delay_s`` propagation."""

    src: str
    dst: str
    rate_bps: float
    delay_s: float = DEFAULT_DELAY_S

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ConfigurationError("link rate must be positive")
        if self.delay_s < 0:
            raise ConfigurationError("propagation delay must be >= 0")


class Topology:
    """Directed graph of hosts and switches."""

    def __init__(self) -> None:
        self.hosts: List[str] = []
        self.switches: List[str] = []
        self._links: Dict[Tuple[str, str], NetLink] = {}
        self._neighbors: Dict[str, List[str]] = {}

    # -- construction --------------------------------------------------
    def add_host(self, name: str) -> str:
        self._add_node(name)
        self.hosts.append(name)
        return name

    def add_switch(self, name: str) -> str:
        self._add_node(name)
        self.switches.append(name)
        return name

    def _add_node(self, name: str) -> None:
        if name in self._neighbors:
            raise ConfigurationError(f"duplicate node name {name!r}")
        self._neighbors[name] = []

    def add_link(self, a: str, b: str, rate_bps: float,
                 delay_s: float = DEFAULT_DELAY_S,
                 bidirectional: bool = True) -> None:
        """Connect ``a -> b`` (and ``b -> a`` unless told otherwise)."""
        for node in (a, b):
            if node not in self._neighbors:
                raise ConfigurationError(f"unknown node {node!r}")
        pairs = [(a, b), (b, a)] if bidirectional else [(a, b)]
        for src, dst in pairs:
            if (src, dst) in self._links:
                raise ConfigurationError(
                    f"duplicate link {src!r} -> {dst!r}")
            self._links[(src, dst)] = NetLink(src, dst, rate_bps,
                                              delay_s)
            self._neighbors[src].append(dst)
            self._neighbors[src].sort()

    # -- queries --------------------------------------------------------
    def nodes(self) -> List[str]:
        return sorted(self._neighbors)

    def is_host(self, name: str) -> bool:
        return name in set(self.hosts)

    def neighbors(self, name: str) -> List[str]:
        """Out-neighbors, sorted (the sort is load-bearing: routing
        tie-breaks follow it)."""
        try:
            return list(self._neighbors[name])
        except KeyError:
            raise ConfigurationError(f"unknown node {name!r}") from None

    def link(self, src: str, dst: str) -> NetLink:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise ConfigurationError(
                f"no link {src!r} -> {dst!r}") from None

    def links(self) -> Iterable[NetLink]:
        return [self._links[key] for key in sorted(self._links)]

    def validate(self) -> None:
        """Every host needs at least one attached link; a host with
        more than one is fine (multihoming) but unusual."""
        for host in self.hosts:
            if not self._neighbors[host]:
                raise ConfigurationError(
                    f"host {host!r} has no attached link")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Topology({len(self.hosts)} hosts, "
                f"{len(self.switches)} switches, "
                f"{len(self._links)} directed links)")


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def dumbbell(hosts_per_side: int = 4, access_gbps: float = 10.0,
             core_gbps: float = 40.0,
             delay_s: float = DEFAULT_DELAY_S) -> Topology:
    """Two access switches ``s0``/``s1`` joined by one core link;
    hosts ``h0..h{n-1}`` hang off ``s0``, ``h{n}..h{2n-1}`` off
    ``s1``."""
    if hosts_per_side < 1:
        raise ConfigurationError("need at least one host per side")
    topo = Topology()
    topo.add_switch("s0")
    topo.add_switch("s1")
    for index in range(2 * hosts_per_side):
        host = topo.add_host(f"h{index}")
        switch = "s0" if index < hosts_per_side else "s1"
        topo.add_link(host, switch, gbps(access_gbps), delay_s)
    topo.add_link("s0", "s1", gbps(core_gbps), delay_s)
    return topo


def leaf_spine(leaves: int = 2, spines: int = 2,
               hosts_per_leaf: int = 2, host_gbps: float = 10.0,
               fabric_gbps: float = 20.0,
               delay_s: float = DEFAULT_DELAY_S) -> Topology:
    """2-tier Clos: every leaf ``l<i>`` connects to every spine
    ``sp<j>``; host ``h<k>`` attaches to leaf ``l<k //
    hosts_per_leaf>``.  Cross-leaf paths are host -> leaf -> spine ->
    leaf -> host, giving ``spines`` equal-cost paths for ECMP."""
    if leaves < 1 or spines < 1 or hosts_per_leaf < 1:
        raise ConfigurationError(
            "leaves, spines, and hosts_per_leaf must all be >= 1")
    topo = Topology()
    for leaf in range(leaves):
        topo.add_switch(f"l{leaf}")
    for spine in range(spines):
        topo.add_switch(f"sp{spine}")
    for index in range(leaves * hosts_per_leaf):
        host = topo.add_host(f"h{index}")
        topo.add_link(host, f"l{index // hosts_per_leaf}",
                      gbps(host_gbps), delay_s)
    for leaf in range(leaves):
        for spine in range(spines):
            topo.add_link(f"l{leaf}", f"sp{spine}",
                          gbps(fabric_gbps), delay_s)
    return topo


def fat_tree(k: int = 4, host_gbps: float = 10.0,
             fabric_gbps: float = 10.0,
             delay_s: float = DEFAULT_DELAY_S) -> Topology:
    """The k-ary fat-tree: ``k`` pods, each with ``k/2`` edge and
    ``k/2`` aggregation switches; ``(k/2)^2`` cores; ``k^3/4`` hosts.

    Names: host ``h<n>``, edge ``e<pod>_<i>``, aggregation
    ``a<pod>_<i>``, core ``c<i>``.  Core ``c<i*(k/2)+j>`` connects to
    aggregation switch ``a<pod>_<i>`` in every pod (the standard
    striping), so any two cross-pod hosts see ``(k/2)^2`` equal-cost
    paths.
    """
    if k < 2 or k % 2:
        raise ConfigurationError("fat-tree k must be even and >= 2")
    half = k // 2
    topo = Topology()
    for core in range(half * half):
        topo.add_switch(f"c{core}")
    host_index = 0
    for pod in range(k):
        for i in range(half):
            topo.add_switch(f"e{pod}_{i}")
            topo.add_switch(f"a{pod}_{i}")
        for i in range(half):
            for j in range(half):
                topo.add_link(f"e{pod}_{i}", f"a{pod}_{j}",
                              gbps(fabric_gbps), delay_s)
            for j in range(half):
                topo.add_link(f"a{pod}_{i}", f"c{i * half + j}",
                              gbps(fabric_gbps), delay_s)
        for i in range(half):
            for _ in range(half):
                host = topo.add_host(f"h{host_index}")
                topo.add_link(host, f"e{pod}_{i}", gbps(host_gbps),
                              delay_s)
                host_index += 1
    return topo
