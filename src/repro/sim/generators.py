"""Traffic generators and flow-size samplers.

The paper's prototype implements "packet generators, one per flow, on the
FPGA to simulate the flows" (Section 6.3).  These are their software
equivalents; each generator injects packets into a flow queue through a
callback supplied by the transmit engine, so arrival handling (and the
framework's pre-enqueue trigger) stays in one place.

The *flow-size samplers* (:class:`EmpiricalCdfSampler`,
:class:`ParetoSampler`) serve the :mod:`repro.net` host workloads:
seeded inverse-transform draws from the heavy-tailed distributions the
FCT literature evaluates against (web-search / data-mining empirical
CDFs, Pareto).  Each sampler exposes its analytic ``mean_bytes`` so
open-loop load targets (arrival rate = load x link / mean size) need no
Monte Carlo warm-up, and the statistical generator tests can check
sample means against a closed form.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from repro.sim.events import Simulator
from repro.sim.packet import MTU_BYTES, Packet

#: Signature used to hand a packet to the scheduler/engine.
ArrivalSink = Callable[[Hashable, Packet], None]


class PacketGenerator:
    """Base class: generates packets for one flow until ``end_time``."""

    def __init__(self, sim: Simulator, flow_id: Hashable, sink: ArrivalSink,
                 size_bytes: int = MTU_BYTES,
                 end_time: float = float("inf")) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.sink = sink
        self.size_bytes = size_bytes
        self.end_time = end_time
        self.packets_generated = 0
        #: A constant interarrival gap, set by generators that have one
        #: so :meth:`_fire` skips the :meth:`next_interarrival` call.
        self.gap: Optional[float] = None

    def start(self, at: Optional[float] = None) -> None:
        self.sim.post(self.sim.now if at is None else at, self._fire)

    def _fire(self) -> None:
        """Emit one packet, then re-arm for the next arrival."""
        sim = self.sim
        now = sim.now
        if now >= self.end_time:
            return
        flow_id = self.flow_id
        packet = Packet(flow_id, self.size_bytes, now)
        self.packets_generated += 1
        self.sink(flow_id, packet)
        delay = self.gap
        if delay is None:
            delay = self.next_interarrival()
        if delay is not None:
            sim.post(sim.now + delay, self._fire)

    def next_interarrival(self) -> Optional[float]:
        raise NotImplementedError


class CbrGenerator(PacketGenerator):
    """Constant-bit-rate arrivals at ``rate_bps``."""

    def __init__(self, sim: Simulator, flow_id: Hashable, sink: ArrivalSink,
                 rate_bps: float, size_bytes: int = MTU_BYTES,
                 end_time: float = float("inf")) -> None:
        super().__init__(sim, flow_id, sink, size_bytes, end_time)
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.rate_bps = rate_bps
        self.gap = self.next_interarrival()

    def next_interarrival(self) -> float:
        return self.size_bytes * 8 / self.rate_bps


class PoissonGenerator(PacketGenerator):
    """Poisson arrivals with mean rate ``rate_bps``."""

    def __init__(self, sim: Simulator, flow_id: Hashable, sink: ArrivalSink,
                 rate_bps: float, size_bytes: int = MTU_BYTES,
                 end_time: float = float("inf"),
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(sim, flow_id, sink, size_bytes, end_time)
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.rate_bps = rate_bps
        self.rng = rng or random.Random(0)

    def next_interarrival(self) -> float:
        mean = self.size_bytes * 8 / self.rate_bps
        return self.rng.expovariate(1.0 / mean)


class OnOffGenerator(PacketGenerator):
    """Bursty on/off traffic: CBR at ``peak_rate_bps`` during on-periods."""

    def __init__(self, sim: Simulator, flow_id: Hashable, sink: ArrivalSink,
                 peak_rate_bps: float, on_seconds: float, off_seconds: float,
                 size_bytes: int = MTU_BYTES,
                 end_time: float = float("inf"),
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(sim, flow_id, sink, size_bytes, end_time)
        if peak_rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.peak_rate_bps = peak_rate_bps
        self.on_seconds = on_seconds
        self.off_seconds = off_seconds
        self.rng = rng or random.Random(0)
        self._on_until = 0.0

    def start(self, at: Optional[float] = None) -> None:
        start_time = self.sim.now if at is None else at
        self._on_until = start_time + self._draw(self.on_seconds)
        super().start(at)

    def _draw(self, mean: float) -> float:
        return self.rng.expovariate(1.0 / mean) if mean > 0 else 0.0

    def next_interarrival(self) -> float:
        gap = self.size_bytes * 8 / self.peak_rate_bps
        next_time = self.sim.now + gap
        if next_time <= self._on_until:
            return gap
        off = self._draw(self.off_seconds)
        self._on_until = next_time + off + self._draw(self.on_seconds)
        return gap + off


class EmpiricalCdfSampler:
    """Seeded inverse-transform sampling from an empirical size CDF.

    ``points`` is a sequence of ``(size_bytes, cumulative_probability)``
    pairs, strictly increasing in both coordinates, ending at
    probability 1.0 — the form the datacenter FCT literature publishes
    (web-search / data-mining distributions).  A draw picks u ~ U(0, 1]
    and interpolates linearly between the bracketing points; mass at or
    below the first point's probability is an atom at the first size
    (the published tables start with e.g. "50% of flows are 1 packet").

    ``mean_bytes`` is exact for that interpolation: the atom plus each
    segment's mass times its midpoint size.
    """

    def __init__(self, points: Sequence[Tuple[float, float]],
                 rng: Optional[random.Random] = None) -> None:
        if len(points) < 1:
            raise ValueError("empirical CDF needs at least one point")
        previous_size, previous_prob = None, 0.0
        for size, prob in points:
            if size <= 0:
                raise ValueError("CDF sizes must be positive")
            if previous_size is not None and size <= previous_size:
                raise ValueError("CDF sizes must strictly increase")
            if prob <= previous_prob:
                raise ValueError(
                    "CDF probabilities must strictly increase")
            previous_size, previous_prob = size, prob
        if abs(points[-1][1] - 1.0) > 1e-9:
            raise ValueError("CDF must end at probability 1.0")
        self.points: List[Tuple[float, float]] = [
            (float(size), float(prob)) for size, prob in points]
        self.rng = rng or random.Random(0)

    @property
    def mean_bytes(self) -> float:
        sizes = [size for size, _ in self.points]
        probs = [prob for _, prob in self.points]
        mean = probs[0] * sizes[0]
        for index in range(1, len(sizes)):
            mass = probs[index] - probs[index - 1]
            mean += mass * (sizes[index - 1] + sizes[index]) / 2.0
        return mean

    def sample(self) -> int:
        u = self.rng.random()
        sizes = [size for size, _ in self.points]
        probs = [prob for _, prob in self.points]
        if u <= probs[0]:
            return max(1, round(sizes[0]))
        for index in range(1, len(sizes)):
            if u <= probs[index]:
                lo_s, hi_s = sizes[index - 1], sizes[index]
                lo_p, hi_p = probs[index - 1], probs[index]
                fraction = (u - lo_p) / (hi_p - lo_p)
                return max(1, round(lo_s + fraction * (hi_s - lo_s)))
        return max(1, round(sizes[-1]))

    def tail_mass(self, size_bytes: float) -> float:
        """P(size > size_bytes) under the interpolated CDF (closed
        form, for the statistical property tests)."""
        sizes = [size for size, _ in self.points]
        probs = [prob for _, prob in self.points]
        if size_bytes < sizes[0]:
            return 1.0
        for index in range(1, len(sizes)):
            if size_bytes < sizes[index]:
                lo_s, hi_s = sizes[index - 1], sizes[index]
                lo_p, hi_p = probs[index - 1], probs[index]
                fraction = (size_bytes - lo_s) / (hi_s - lo_s)
                return 1.0 - (lo_p + fraction * (hi_p - lo_p))
        return 0.0


class ParetoSampler:
    """Seeded bounded-Pareto flow sizes: ``scale * u^(-1/alpha)`` capped
    at ``cap_bytes`` (an uncapped alpha <= 1 tail has infinite mean, so
    open-loop load targets would be undefined).

    ``mean_bytes`` is the exact mean of the capped distribution.
    """

    def __init__(self, alpha: float = 1.5, scale_bytes: float = 1000.0,
                 cap_bytes: float = 10e6,
                 rng: Optional[random.Random] = None) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if scale_bytes <= 0 or cap_bytes <= scale_bytes:
            raise ValueError("need 0 < scale_bytes < cap_bytes")
        self.alpha = alpha
        self.scale_bytes = scale_bytes
        self.cap_bytes = cap_bytes
        self.rng = rng or random.Random(0)

    @property
    def mean_bytes(self) -> float:
        alpha, xm, cap = self.alpha, self.scale_bytes, self.cap_bytes
        # P(X >= cap) for the uncapped Pareto; that mass sits at cap.
        tail = (xm / cap) ** alpha
        if alpha == 1.0:
            body = xm * math.log(cap / xm)
        else:
            body = (alpha * xm / (alpha - 1.0)
                    * (1.0 - (xm / cap) ** (alpha - 1.0)))
        return body + tail * cap

    def sample(self) -> int:
        u = self.rng.random()
        size = self.scale_bytes / max(u, 1e-12) ** (1.0 / self.alpha)
        return max(1, round(min(size, self.cap_bytes)))

    def tail_mass(self, size_bytes: float) -> float:
        """P(size > size_bytes) (closed form)."""
        if size_bytes < self.scale_bytes:
            return 1.0
        if size_bytes >= self.cap_bytes:
            return 0.0
        return (self.scale_bytes / size_bytes) ** self.alpha


class BackloggedSource:
    """Keeps a flow queue permanently backlogged at a target depth.

    Models an infinitely backlogged flow (the standard fair-queuing
    workload): whenever the engine reports a departure, the source tops
    the queue back up.
    """

    def __init__(self, sim: Simulator, flow_id: Hashable, sink: ArrivalSink,
                 depth: int = 4, size_bytes: int = MTU_BYTES,
                 end_time: float = float("inf")) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.sim = sim
        self.flow_id = flow_id
        self.sink = sink
        self.depth = depth
        self.size_bytes = size_bytes
        self.end_time = end_time
        self.packets_generated = 0
        self._outstanding = 0

    def start(self, at: Optional[float] = None) -> None:
        start_time = self.sim.now if at is None else at
        self.sim.post(start_time, self._prime)

    # Both refills build the packet and call the sink inline, with no
    # helper frame, as PacketGenerator._fire does.
    def _prime(self) -> None:
        flow_id, sink, sim = self.flow_id, self.sink, self.sim
        for _ in range(self.depth):
            packet = Packet(flow_id, self.size_bytes, sim.now)
            self.packets_generated += 1
            self._outstanding += 1
            sink(flow_id, packet)

    def on_departure(self) -> None:
        """Engine callback: one of this flow's packets left the wire."""
        self._outstanding -= 1
        now = self.sim.now
        if now < self.end_time:
            flow_id = self.flow_id
            packet = Packet(flow_id, self.size_bytes, now)
            self.packets_generated += 1
            self._outstanding += 1
            self.sink(flow_id, packet)
