"""Heavy-tailed datacenter workloads for the fabric.

The two empirical flow-size distributions the FCT literature evaluates
against (both in the pFabric/PIAS/SP-PIFO lineage, sizes here in bytes
at 1460-byte segments):

* **web-search** (the DCTCP production cluster trace): mean ~1.6 MB,
  ~60% of *flows* under 50 KB but ~95% of *bytes* in flows over 1 MB;
* **data-mining** (the VL2 cluster trace): even heavier tail — half of
  all flows are a single packet while the top 1% exceed 100 MB.

Plus a bounded **Pareto** (alpha 1.5) for parameterized tests and quick
runs where the real traces' multi-megabyte tails would dwarf a short
simulated duration.

:class:`OpenLoopWorkload` drives one host: flow arrivals are Poisson
with rate ``load x uplink_rate / mean_flow_size`` (so ``load`` is the
long-run fraction of the host's uplink capacity offered), destinations
uniform over the other hosts, sizes from the sampler — every draw from
per-host seeded RNGs, so a sharded sweep point regenerates the exact
same traffic in any process.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.net.fabric import Fabric
from repro.sim.generators import EmpiricalCdfSampler, ParetoSampler

#: Segment size the published CDFs are quoted in (1460-byte MSS).
SEGMENT_BYTES = 1460

#: Web-search (DCTCP) flow sizes: (bytes, cumulative probability).
WEB_SEARCH_CDF: Tuple[Tuple[float, float], ...] = tuple(
    (packets * SEGMENT_BYTES, probability) for packets, probability in (
        (1, 0.0001), (6, 0.15), (13, 0.30), (19, 0.45), (33, 0.60),
        (53, 0.70), (133, 0.80), (667, 0.90), (1467, 0.95),
        (2107, 0.98), (6667, 1.0)))

#: Data-mining (VL2) flow sizes: (bytes, cumulative probability).
DATA_MINING_CDF: Tuple[Tuple[float, float], ...] = tuple(
    (packets * SEGMENT_BYTES, probability) for packets, probability in (
        (1, 0.50), (2, 0.60), (3, 0.70), (7, 0.80), (267, 0.90),
        (2107, 0.95), (66667, 0.99), (666667, 1.0)))

#: Registered workload names for ``--workload``.
WORKLOADS = ("web-search", "data-mining", "pareto")


def make_size_sampler(name: str, rng: Optional[random.Random] = None):
    """A seeded flow-size sampler by workload name."""
    if name == "web-search":
        return EmpiricalCdfSampler(WEB_SEARCH_CDF, rng=rng)
    if name == "data-mining":
        return EmpiricalCdfSampler(DATA_MINING_CDF, rng=rng)
    if name == "pareto":
        # Mean ~ 9.5 KB: small enough that millisecond-scale runs
        # complete thousands of flows, tail capped at 1 MB.
        return ParetoSampler(alpha=1.5, scale_bytes=3000.0,
                             cap_bytes=1e6, rng=rng)
    raise ConfigurationError(
        f"unknown workload {name!r}; available: "
        f"{', '.join(WORKLOADS)}")


def host_seed(seed: int, host: str) -> int:
    """Process-stable per-host RNG seed (CRC32, not builtin hash)."""
    return zlib.crc32(f"{seed}|{host}".encode())


class OpenLoopWorkload:
    """Poisson open-loop flow arrivals from one host.

    ``load`` is offered load as a fraction of the host's uplink rate;
    the flow arrival rate is ``load * rate / (mean_size * 8)`` per
    second.  All randomness comes from one ``random.Random(host_seed)``
    so the arrival process is a pure function of ``(seed, host)``.
    """

    def __init__(self, fabric: Fabric, host: str, load: float,
                 sampler, end_time: float,
                 dsts: Optional[Sequence[str]] = None,
                 seed: int = 0) -> None:
        if not 0 < load:
            raise ConfigurationError("load must be positive")
        self.fabric = fabric
        self.host = host
        self.sampler = sampler
        self.end_time = end_time
        self.rng = random.Random(host_seed(seed, host))
        uplink_rate = fabric.topology.link(
            host, fabric.hosts[host].uplink).rate_bps
        self.mean_interarrival_s = (sampler.mean_bytes * 8
                                    / (load * uplink_rate))
        self.dsts: List[str] = sorted(
            dsts if dsts is not None else
            [name for name in fabric.topology.hosts if name != host])
        if not self.dsts:
            raise ConfigurationError(
                f"host {host!r} has no destinations to send to")
        self.flows_started = 0

    def start(self, at: Optional[float] = None) -> None:
        first = (self.fabric.sim.now if at is None else at) \
            + self.rng.expovariate(1.0 / self.mean_interarrival_s)
        self.fabric.sim.post(first, self._fire)

    def _fire(self) -> None:
        now = self.fabric.sim.now
        if now >= self.end_time:
            return
        dst = self.dsts[self.rng.randrange(len(self.dsts))]
        size = self.sampler.sample()
        self.fabric.open_flow(
            self.host, dst, size,
            sport=self.rng.randrange(1024, 65536),
            dport=self.rng.randrange(1024, 65536))
        self.flows_started += 1
        gap = self.rng.expovariate(1.0 / self.mean_interarrival_s)
        sim = self.fabric.sim
        sim.post(sim.now + gap, self._fire)
