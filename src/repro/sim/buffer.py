"""Shared-buffer admission control with pluggable drop policies.

A real switch dataplane admits every arriving packet into one shared
packet memory before scheduling ever sees it; when the memory (or a
per-port / per-flow carve-out) is full, the admission stage *drops* —
and which packet it drops is a policy decision as consequential as the
scheduler's rank function.  This module gives the repro that missing
stage:

* :class:`BufferManager` — byte+packet occupancy accounting at three
  granularities (global, per-port, per-flow) with an ``admit`` /
  ``release`` lifecycle wired into each port's
  :class:`~repro.sim.engine.TransmitEngine` hooks;
* :class:`DropPolicy` and a registry mirroring
  :mod:`repro.core.backends` / :mod:`repro.sim.events`:
  ``"tail-drop"`` (refuse the arrival), ``"longest-queue"`` (push-out:
  evict the tail of the most backlogged queue to make room — LQD),
  and ``"red"`` (RED-style probabilistic early drop on an EWMA of the
  occupancy, with a seeded RNG so runs stay deterministic).

Every drop — arrival refusal or push-out eviction — is emitted through
the tracer as a ``drop`` event carrying ``reason``, ``port``,
``packet_id``, and ``size_bytes``, so the analyzer's conservation audit
(arrivals == departures + drops + residue) and latency attribution see
the admission stage exactly like any other.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.scope import NULL_METRICS, NULL_TRACER
from repro.sim.flow import FlowQueue
from repro.sim.packet import Packet

#: Resolves a flow id to its live :class:`FlowQueue` (or None); ports
#: register one per port so push-out policies can reach victim queues.
QueueResolver = Callable[[Hashable], Optional[FlowQueue]]


# ----------------------------------------------------------------------
# Drop policies
# ----------------------------------------------------------------------
class DropPolicy:
    """Decides what to do when the buffer cannot (or should not)
    accept an arrival.

    ``pre_admit`` runs on every arrival before any capacity check and
    may veto it (early/probabilistic dropping, e.g. RED); ``make_room``
    runs when a capacity check failed and may free space (push-out
    policies); returning True re-runs the capacity checks.  The default
    implementations — admit everything, never make room — give plain
    tail-drop semantics.
    """

    name = "drop-policy"

    def pre_admit(self, buffer: "BufferManager", port_id: Hashable,
                  flow_id: Hashable, packet: Packet) -> Optional[str]:
        """Return a drop reason to refuse the packet outright."""
        return None

    def make_room(self, buffer: "BufferManager", port_id: Hashable,
                  flow_id: Hashable, packet: Packet,
                  reason: str) -> bool:
        """Try to free space for ``packet``; True if anything was
        evicted (the admission checks then re-run)."""
        return False


#: The base class's ``pre_admit``: a policy that keeps it vetoes
#: nothing, and ``BufferManager.admit`` skips the call.
_ADMIT_ALL = DropPolicy.pre_admit


class TailDrop(DropPolicy):
    """Refuse arrivals once a capacity limit is hit (the default)."""

    name = "tail-drop"


class LongestQueueDrop(DropPolicy):
    """Push-out: evict the tail of the most backlogged flow queue.

    The classic shared-memory LQD discipline — when the buffer is full,
    the flow hogging the most memory loses its newest packet so the
    arrival can be admitted.  A victim queue is only eligible while it
    holds at least two packets (evicting the last packet would strand
    the flow's residency in the scheduler's ordered list); when no
    eligible victim can free enough space the policy degrades to
    tail-drop on the arrival.
    """

    name = "longest-queue"

    def make_room(self, buffer: "BufferManager", port_id: Hashable,
                  flow_id: Hashable, packet: Packet,
                  reason: str) -> bool:
        # Per-flow overflow is a carve-out the flow itself exceeded;
        # evicting *other* flows would punish the innocent.  Per-port
        # overflow is relieved only by the arriving port's own queues,
        # even when the shared limit is full as well (``_violated``
        # names that one first): an eviction there frees both.
        if reason.startswith("flow"):
            return False
        port_reason = reason.startswith("port")
        # The per-turn carve-out check costs a call per eviction; with
        # no per-port limit set it can never hold.
        carved = (buffer.per_port_pkts is not None
                  or buffer.per_port_bytes is not None)
        # ``reason`` already proves the arrival does not fit, so each
        # turn evicts first and then checks once.
        evicted = False
        while True:
            only_port = (port_id if port_reason or (
                carved and buffer.port_overflows(port_id, packet))
                else None)
            victim = buffer.longest_queue(min_depth=2,
                                          only_port=only_port)
            if victim is None:
                return evicted
            victim_port, victim_flow, queue = victim
            dropped = queue.drop_tail()
            buffer.note_eviction(victim_port, victim_flow, dropped,
                                 reason="evicted:longest-queue")
            evicted = True
            if buffer._violated(port_id, flow_id, packet) is None:
                return True


class RedDrop(DropPolicy):
    """RED-style probabilistic early drop on smoothed occupancy.

    Tracks an EWMA of the global byte occupancy (weight ``ewma_weight``
    per arrival).  Below ``min_fill`` of the byte capacity nothing is
    dropped; between ``min_fill`` and ``max_fill`` arrivals are dropped
    with probability rising linearly to ``max_probability``; above
    ``max_fill`` every arrival is dropped.  The RNG is seeded, so runs
    (and sharded sweep points, which construct their own managers) are
    deterministic.
    """

    name = "red"

    def __init__(self, min_fill: float = 0.4, max_fill: float = 0.8,
                 max_probability: float = 0.1,
                 ewma_weight: float = 0.2, seed: int = 1) -> None:
        if not 0.0 <= min_fill < max_fill <= 1.0:
            raise ConfigurationError(
                f"need 0 <= min_fill < max_fill <= 1, got "
                f"{min_fill}/{max_fill}")
        if not 0.0 < max_probability <= 1.0:
            raise ConfigurationError(
                f"max_probability must be in (0, 1], got "
                f"{max_probability}")
        if not 0.0 < ewma_weight <= 1.0:
            raise ConfigurationError(
                f"ewma_weight must be in (0, 1], got {ewma_weight}")
        self.min_fill = min_fill
        self.max_fill = max_fill
        self.max_probability = max_probability
        self.ewma_weight = ewma_weight
        self._rng = random.Random(seed)
        self._avg_bytes = 0.0

    def pre_admit(self, buffer: "BufferManager", port_id: Hashable,
                  flow_id: Hashable, packet: Packet) -> Optional[str]:
        capacity = buffer.capacity_bytes
        if capacity is None:
            return None  # RED needs a byte capacity to scale against
        weight = self.ewma_weight
        self._avg_bytes += weight * (buffer.total_bytes
                                     - self._avg_bytes)
        fill = self._avg_bytes / capacity
        if fill < self.min_fill:
            return None
        if fill >= self.max_fill:
            return "red:forced"
        probability = (self.max_probability
                       * (fill - self.min_fill)
                       / (self.max_fill - self.min_fill))
        if self._rng.random() < probability:
            return "red:early"
        return None


# ----------------------------------------------------------------------
# Drop-policy registry (mirrors repro.core.backends)
# ----------------------------------------------------------------------
class _PolicyEntry:
    __slots__ = ("name", "factory", "description")

    def __init__(self, name, factory, description):
        self.name = name
        self.factory = factory
        self.description = description


_DROP_POLICIES: Dict[str, _PolicyEntry] = {}


def register_drop_policy(name: str, factory,
                         description: str = "") -> None:
    """Register a drop-policy factory under ``name`` (overwrites)."""
    _DROP_POLICIES[name] = _PolicyEntry(name, factory, description)


def available_drop_policies():
    """Registered policy names, sorted."""
    return sorted(_DROP_POLICIES)


def get_drop_policy(name: str) -> _PolicyEntry:
    entry = _DROP_POLICIES.get(name)
    if entry is None:
        raise ConfigurationError(
            f"unknown drop policy {name!r}; available: "
            f"{', '.join(available_drop_policies())}")
    return entry


def make_drop_policy(name: str, **config) -> DropPolicy:
    """Instantiate a registered drop policy."""
    return get_drop_policy(name).factory(**config)


register_drop_policy(
    "tail-drop", TailDrop,
    description="refuse arrivals once a capacity limit is hit")
register_drop_policy(
    "longest-queue", LongestQueueDrop,
    description="push-out: evict the tail of the most backlogged "
                "queue (LQD)")
register_drop_policy(
    "red", RedDrop,
    description="probabilistic early drop on EWMA occupancy "
                "(RED-style, seeded)")


# ----------------------------------------------------------------------
# BufferManager
# ----------------------------------------------------------------------
class _PortRecord:
    """One port's occupancy: ``bytes`` and ``pkts``, and ``flows``
    mapping each resident flow to a ``[bytes, packets, seq]`` entry
    updated in place (``seq`` numbers entries in creation order, the
    victim tie-break's last resort).  It has no ``__init__``, so making
    one costs no Python frame; whoever makes one sets all three
    fields."""

    __slots__ = ("bytes", "pkts", "flows")


#: What the capacity checks read for a port or flow holding nothing.
_NO_PORT = _PortRecord()
_NO_PORT.bytes = _NO_PORT.pkts = 0
_NO_PORT.flows = {}
_NO_FLOW = (0, 0)


class BufferManager:
    """Shared packet-memory accounting for a multi-port dataplane.

    Capacities (all optional; ``None`` means unlimited):

    ``capacity_bytes`` / ``capacity_pkts``
        The shared memory every port draws from.
    ``per_port_bytes`` / ``per_port_pkts``
        Carve-out limit applied to each port's total occupancy.
    ``per_flow_bytes`` / ``per_flow_pkts``
        Carve-out limit applied to each (port, flow) pair.

    ``admit(port_id, flow_id, packet, now)`` charges occupancy or emits
    a ``drop`` trace event and returns False; ``release`` credits it
    back at transmission (each :class:`~repro.sim.port.Port` binds
    both to its port id as its engine's admission and release hooks).
    ``policy`` is a :class:`DropPolicy`, a registered name, or None for
    tail-drop.  The limits are plain attributes, read on every
    admission: changing one takes effect at the next arrival.

    Occupancy lives in one :class:`_PortRecord` per port, made at its
    first admission.  ``port_bytes``, ``port_pkts``, ``flow_bytes`` and
    ``flow_pkts`` are read-only snapshots built from the records; the
    packet path never builds them.
    """

    def __init__(self, capacity_bytes: Optional[int] = None,
                 capacity_pkts: Optional[int] = None,
                 per_port_bytes: Optional[int] = None,
                 per_port_pkts: Optional[int] = None,
                 per_flow_bytes: Optional[int] = None,
                 per_flow_pkts: Optional[int] = None,
                 policy=None, tracer=None, metrics=None) -> None:
        for label, value in (("capacity_bytes", capacity_bytes),
                             ("capacity_pkts", capacity_pkts),
                             ("per_port_bytes", per_port_bytes),
                             ("per_port_pkts", per_port_pkts),
                             ("per_flow_bytes", per_flow_bytes),
                             ("per_flow_pkts", per_flow_pkts)):
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{label} must be positive or None, got {value}")
        self.capacity_bytes = capacity_bytes
        self.capacity_pkts = capacity_pkts
        self.per_port_bytes = per_port_bytes
        self.per_port_pkts = per_port_pkts
        self.per_flow_bytes = per_flow_bytes
        self.per_flow_pkts = per_flow_pkts
        if policy is None:
            policy = TailDrop()
        elif isinstance(policy, str):
            policy = make_drop_policy(policy)
        self.policy = policy
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._traced = self.tracer is not NULL_TRACER
        self._metered = self.metrics is not NULL_METRICS
        # Occupancy.
        self.total_bytes = 0
        self.total_pkts = 0
        self._ports: Dict[Hashable, _PortRecord] = {}
        self._flow_seq = itertools.count()
        # Totals.
        self.admitted = 0
        self.dropped = 0
        self.dropped_bytes = 0
        self.evicted = 0
        self.drops_by_port: Dict[Hashable, int] = {}
        self.drops_by_reason: Dict[str, int] = {}
        # Victim-queue resolvers, one per attached port.
        self._resolvers: Dict[Hashable, QueueResolver] = {}
        # The dataplane's clock (set via attach_clock) so eviction drop
        # events are stamped with sim time.
        self._now: Callable[[], float] = lambda: 0.0
        if self._metered:
            self._c_admitted = self.metrics.counter("buffer.admitted")
            self._c_dropped = self.metrics.counter("buffer.dropped")
            self._c_evicted = self.metrics.counter("buffer.evicted")
            self._g_bytes = self.metrics.gauge("buffer.occupancy_bytes")
            self._g_pkts = self.metrics.gauge("buffer.occupancy_pkts")

    # -- wiring --------------------------------------------------------
    def attach_port(self, port_id: Hashable,
                    resolver: QueueResolver) -> None:
        """Register a port's flow-queue resolver (push-out victims)."""
        self._resolvers[port_id] = resolver

    def attach_clock(self, now: Callable[[], float]) -> None:
        """Give the buffer a sim-time source for eviction events."""
        self._now = now

    # -- occupancy snapshots -------------------------------------------
    @property
    def port_bytes(self) -> Dict[Hashable, int]:
        """Bytes held per port (a snapshot)."""
        return {port_id: record.bytes
                for port_id, record in self._ports.items()}

    @property
    def port_pkts(self) -> Dict[Hashable, int]:
        """Packets held per port (a snapshot)."""
        return {port_id: record.pkts
                for port_id, record in self._ports.items()}

    @property
    def flow_bytes(self) -> Dict[Tuple[Hashable, Hashable], int]:
        """Bytes held per ``(port, flow)`` (a snapshot)."""
        return {key: entry[0] for key, entry in self._flow_entries()}

    @property
    def flow_pkts(self) -> Dict[Tuple[Hashable, Hashable], int]:
        """Packets held per ``(port, flow)`` (a snapshot)."""
        return {key: entry[1] for key, entry in self._flow_entries()}

    def _flow_entries(self):
        """``((port, flow), entry)`` pairs in entry-creation order."""
        pairs = [((port_id, flow_id), entry)
                 for port_id, record in self._ports.items()
                 for flow_id, entry in record.flows.items()]
        pairs.sort(key=lambda pair: pair[1][2])
        return pairs

    # -- capacity checks -----------------------------------------------
    def _violated(self, port_id: Hashable, flow_id: Hashable,
                  packet: Packet) -> Optional[str]:
        """First violated limit as a drop reason, or None if it fits."""
        size = packet.size_bytes
        if self.capacity_pkts is not None \
                and self.total_pkts + 1 > self.capacity_pkts:
            return "buffer:pkts"
        if self.capacity_bytes is not None \
                and self.total_bytes + size > self.capacity_bytes:
            return "buffer:bytes"
        if (self.per_port_pkts is None and self.per_port_bytes is None
                and self.per_flow_pkts is None
                and self.per_flow_bytes is None):
            return None
        record = self._ports.get(port_id, _NO_PORT)
        if self.per_port_pkts is not None \
                and record.pkts + 1 > self.per_port_pkts:
            return "port:pkts"
        if self.per_port_bytes is not None \
                and record.bytes + size > self.per_port_bytes:
            return "port:bytes"
        entry = record.flows.get(flow_id, _NO_FLOW)
        if self.per_flow_pkts is not None \
                and entry[1] + 1 > self.per_flow_pkts:
            return "flow:pkts"
        if self.per_flow_bytes is not None \
                and entry[0] + size > self.per_flow_bytes:
            return "flow:bytes"
        return None

    def port_overflows(self, port_id: Hashable, packet: Packet) -> bool:
        """True when ``packet`` would exceed ``port_id``'s carve-out."""
        record = self._ports.get(port_id, _NO_PORT)
        return ((self.per_port_pkts is not None
                 and record.pkts + 1 > self.per_port_pkts)
                or (self.per_port_bytes is not None
                    and record.bytes + packet.size_bytes
                    > self.per_port_bytes))

    # -- admission lifecycle -------------------------------------------
    def admit(self, port_id: Hashable, flow_id: Hashable,
              packet: Packet, now: float) -> bool:
        """Charge ``packet`` against the buffer, or drop it.

        Returns True (admitted, occupancy charged) or False (dropped; a
        ``drop`` trace event carrying the reason and port was emitted
        and drop counters were bumped).
        """
        policy = self.policy
        size = packet.size_bytes
        reason = None
        if type(policy).pre_admit is not _ADMIT_ALL:
            reason = policy.pre_admit(self, port_id, flow_id, packet)
        # Fast path: no carve-out is set and the shared memory has
        # room.  Otherwise _violated names the first limit hit.  Every
        # limit is read as it stands now, so changing one between
        # admissions takes effect at the next arrival.
        if reason is None and not (
                self.per_flow_pkts is None
                and self.per_flow_bytes is None
                and self.per_port_pkts is None
                and self.per_port_bytes is None
                and (self.capacity_pkts is None
                     or self.total_pkts + 1 <= self.capacity_pkts)
                and (self.capacity_bytes is None
                     or self.total_bytes + size <= self.capacity_bytes)):
            reason = self._violated(port_id, flow_id, packet)
            if reason is not None and policy.make_room(
                    self, port_id, flow_id, packet, reason):
                reason = self._violated(port_id, flow_id, packet)
        if reason is not None:
            self._note_drop(port_id, flow_id, packet, reason, now)
            return False
        self.total_bytes += size
        self.total_pkts += 1
        record = self._ports.get(port_id)
        if record is None:
            record = self._ports[port_id] = _PortRecord()
            record.bytes = record.pkts = 0
            record.flows = {}
        record.bytes += size
        record.pkts += 1
        entry = record.flows.get(flow_id)
        if entry is None:
            record.flows[flow_id] = [size, 1, next(self._flow_seq)]
        else:
            entry[0] += size
            entry[1] += 1
        self.admitted += 1
        if self._metered:
            self._c_admitted.inc()
            self._g_bytes.set(self.total_bytes)
            self._g_pkts.set(self.total_pkts)
        return True

    def release(self, port_id: Hashable, flow_id: Hashable,
                size_bytes: int) -> None:
        """Credit occupancy back (a packet left the buffer).

        Releasing more than ``(port_id, flow_id)`` holds raises
        ``ValueError`` and changes nothing.
        """
        record = self._ports.get(port_id)
        entry = None if record is None else record.flows.get(flow_id)
        if entry is None or entry[0] < size_bytes:
            raise ValueError(
                f"buffer release underflow for port={port_id!r} "
                f"flow={flow_id!r}: released more than admitted")
        self.total_bytes -= size_bytes
        self.total_pkts -= 1
        record.bytes -= size_bytes
        record.pkts -= 1
        if entry[1] == 1:
            # Emptied: drop the entry so victim scans never walk it.
            del record.flows[flow_id]
        else:
            entry[0] -= size_bytes
            entry[1] -= 1
        if self._metered:
            self._g_bytes.set(self.total_bytes)
            self._g_pkts.set(self.total_pkts)

    # -- drop bookkeeping ----------------------------------------------
    def _note_drop(self, port_id: Hashable, flow_id: Hashable,
                   packet: Packet, reason: str, now: float) -> None:
        self.dropped += 1
        self.dropped_bytes += packet.size_bytes
        self.drops_by_port[port_id] = \
            self.drops_by_port.get(port_id, 0) + 1
        self.drops_by_reason[reason] = \
            self.drops_by_reason.get(reason, 0) + 1
        if self._metered:
            self._c_dropped.inc()
        if self._traced:
            self.tracer.drop(now, flow_id, reason=reason,
                             packet_id=packet.packet_id,
                             size_bytes=packet.size_bytes,
                             port=str(port_id))

    def note_eviction(self, port_id: Hashable, flow_id: Hashable,
                      packet: Packet, reason: str) -> None:
        """A push-out policy evicted an already-admitted packet:
        release its occupancy and record the drop."""
        self.release(port_id, flow_id, packet.size_bytes)
        self.evicted += 1
        if self._metered:
            self._c_evicted.inc()
        self._note_drop(port_id, flow_id, packet, reason, self._now())

    # -- victim selection (push-out policies) --------------------------
    def longest_queue(self, min_depth: int = 2,
                      only_port: Optional[Hashable] = None):
        """The (port_id, flow_id, queue) holding the most buffered
        bytes among queues at least ``min_depth`` (>= 1) deep, on
        ``only_port`` when one is given; None if no queue qualifies.
        Ties break on the smallest ``(str(port), str(flow))``, and
        between keys whose strings also match (port ``1`` and ``"1"``)
        on the entry created first.

        Every queued packet was admitted, so a queue is never deeper
        than the buffer's own packet count for it: entries shallower
        than ``min_depth`` are skipped unresolved, the string key is
        built only on a byte tie, and a queue is resolved only when its
        entry would beat the best so far.
        """
        ports = self._ports
        if only_port is None:
            records = ports.items()
        elif only_port in ports:
            records = ((only_port, ports[only_port]),)
        else:
            return None
        resolvers = self._resolvers
        best = best_entry = best_key = None
        for port_id, record in records:
            resolver = resolvers.get(port_id)
            if resolver is None:
                continue
            for flow_id, entry in record.flows.items():
                if entry[1] < min_depth:
                    continue
                key = None
                if best is not None:
                    if entry[0] < best_entry[0]:
                        continue
                    if entry[0] == best_entry[0]:
                        if best_key is None:
                            best_key = (str(best[0]), str(best[1]),
                                        best_entry[2])
                        key = (str(port_id), str(flow_id), entry[2])
                        if key >= best_key:
                            continue
                queue = resolver(flow_id)
                if queue is None or len(queue) < min_depth:
                    continue
                best = (port_id, flow_id, queue)
                best_entry = entry
                best_key = key
        return best

    # -- reporting ------------------------------------------------------
    def occupancy(self) -> Dict[str, object]:
        """Occupancy and drop totals as a plain dict."""
        return {
            "total_bytes": self.total_bytes,
            "total_pkts": self.total_pkts,
            "port_bytes": self.port_bytes,
            "port_pkts": self.port_pkts,
            "admitted": self.admitted,
            "dropped": self.dropped,
            "dropped_bytes": self.dropped_bytes,
            "evicted": self.evicted,
            "drops_by_port": dict(self.drops_by_port),
            "drops_by_reason": dict(self.drops_by_reason),
        }
