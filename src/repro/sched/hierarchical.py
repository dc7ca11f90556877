"""Hierarchical packet scheduling (Section 4.3, Fig. 4).

Flows are grouped into a tree: leaves are flow queues, non-leaf nodes are
classes (e.g. VMs), and every non-leaf node schedules *its own children*
with its own policy.  A single PIEO cannot express this, but several can:

* all nodes at the same depth share one **physical PIEO** (one per level);
* each non-leaf node owns a **logical PIEO** — the slice of its
  children's elements, extracted from the physical PIEO with the
  group-range eligibility predicate ``p.start <= f.index <= p.end``.
  This implementation gives every non-leaf node a unique integer group id
  and tags children with it, which is the same predicate with a
  one-element range (:class:`~repro.sched.framework.LogicalPieoView`);
* enqueue at each level is triggered independently (a queue becoming
  non-empty activates its element in the parent's logical PIEO);
* dequeue starts at the root PIEO and propagates down through the levels
  until a leaf flow transmits.  The hardware pipelines the levels through
  FIFOs; this model propagates synchronously, which reaches the same
  scheduling decisions (the FIFOs only add fixed pipeline latency).

The paper's evaluation (Section 6.3) uses exactly this machinery: Token
Bucket rate limits at level 2 and WF2Q+ fair queuing within each node at
level 1.  Inner (descendant) policies should be work conserving within
their parent's grants — as in the paper's evaluation — because a parent's
policy state is charged when it grants a slot downward.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.backends import DEFAULT_BACKEND, make_factory
from repro.core.element import Time
from repro.core.interfaces import PieoList
from repro.errors import ConfigurationError
from repro.sched.base import SchedulingAlgorithm, TimeBase
from repro.sched.framework import (LogicalPieoView, PieoScheduler,
                                   SchedulerContext)
from repro.sim.flow import FlowQueue
from repro.sim.packet import MTU_BYTES, Packet


class SchedNode:
    """A non-leaf class node.  Quacks like a :class:`FlowQueue` for its
    *parent's* scheduling algorithm, while internally running its own
    policy over its children."""

    def __init__(self, node_id: Hashable, algorithm: SchedulingAlgorithm,
                 weight: float = 1.0, rate_bps: float = 0.0,
                 priority: int = 0) -> None:
        self.flow_id = node_id
        self.algorithm = algorithm
        self.weight = weight
        self.rate_bps = rate_bps
        self.priority = priority
        self.group = 0            # set when attached to a parent
        self.state: Dict[str, float] = {}
        self.parent: Optional["SchedNode"] = None
        self.children: Dict[Hashable, object] = {}
        self.scheduler: Optional[PieoScheduler] = None  # set by the tree
        self.depth = 0
        #: The tree this node is wired into (set by the tree); its clock
        #: is the instant head-size peeks are evaluated at.
        self.tree: Optional["HierarchicalScheduler"] = None

    # -- tree construction -------------------------------------------------
    def add_child(self, child) -> None:
        if child.flow_id in self.children:
            raise ConfigurationError(
                f"duplicate child id {child.flow_id!r}")
        self.children[child.flow_id] = child
        if isinstance(child, SchedNode):
            child.parent = self

    # -- FlowQueue duck interface used by the parent's algorithm -----------
    @property
    def queue(self) -> bool:
        """Truthy iff the subtree holds packets (mirrors the truthiness
        of :attr:`FlowQueue.queue`, which algorithms use as a fast
        backlog test)."""
        return not self.is_empty

    @property
    def is_empty(self) -> bool:
        """True when no descendant flow queue holds a packet."""
        for child in self.children.values():
            if child.queue:
                return False
        return True

    def head_size(self) -> int:
        """Size of the packet this subtree would transmit next.

        Resolved by peeking down the logical PIEOs at the time of the
        tree's latest trigger; falls back to MTU when the inner pick
        cannot be predicted (e.g. an ineligible inner flow).  Exact for
        the paper's MTU-granularity workloads.
        """
        child = self.scheduler.peek_flow(self.tree.now)
        if child is None:
            return MTU_BYTES
        return child.head_size() or MTU_BYTES

    @property
    def backlog_bytes(self) -> int:
        return sum(child.backlog_bytes for child in self.children.values())

    @property
    def head(self):
        child = self.scheduler.peek_flow(self.tree.now)
        return child.head if child is not None else None


class HierarchicalScheduler:
    """An n-level hierarchical scheduler built from logical PIEOs.

    Parameters
    ----------
    root:
        Root :class:`SchedNode`; its policy schedules the level-1 nodes.
    link_rate_bps:
        Output link rate.
    list_factory:
        Callable ``(capacity) -> PieoList`` used for each level's physical
        PIEO.  Usually left unset in favour of ``backend``.
    backend:
        Ordered-list backend name resolved through
        :mod:`repro.core.backends` (``"reference"``, ``"hardware"``,
        ...).  Mutually exclusive with ``list_factory``; defaults to
        the registry default.

    Exposes the same interface as
    :class:`~repro.sched.framework.PieoScheduler` (``on_arrival`` /
    ``schedule`` / ``next_eligible_time``) so the transmit engine is
    oblivious to hierarchy.
    """

    def __init__(self, root: SchedNode, link_rate_bps: float = 40e9,
                 list_factory=None, backend: Optional[str] = None,
                 tracer=None, metrics=None) -> None:
        if list_factory is not None and backend is not None:
            raise ConfigurationError(
                "pass either list_factory or backend, not both")
        self.root = root
        self.link_rate_bps = link_rate_bps
        #: Shared observability hooks, threaded into every node's
        #: per-level scheduler (events carry node/flow ids, so one tracer
        #: sees the whole tree; the ``sched.queue_depth`` gauge counts
        #: elements resident across *all* levels).
        self.tracer = tracer
        self.metrics = metrics
        self._list_factory = list_factory or make_factory(
            backend or DEFAULT_BACKEND)
        self._group_ids = itertools.count()
        #: One shared physical PIEO per non-leaf level (index = depth).
        self.level_lists: List[PieoList] = []
        self.leaf_parent: Dict[Hashable, SchedNode] = {}
        self.flows: Dict[Hashable, FlowQueue] = {}
        self.decisions = 0
        #: Time of the latest trigger (arrival or scheduling decision).
        #: Wall-time nodes peek their children at this instant when a
        #: parent policy asks for their head packet.
        self.now: Time = 0.0
        self._wire(root, depth=0)
        #: Static (physical list, group id) pairs for the wall-time-based
        #: nodes, precomputed so the retry-timer scan in
        #: :meth:`next_eligible_time` avoids re-walking the tree and
        #: building per-node filtered snapshots.
        self._wall_scans: List[Tuple[PieoList, int]] = [
            (node.scheduler.ordered_list._physical,
             node.scheduler.ordered_list._group_id)
            for node in self._all_nodes(root)
            if node.algorithm.time_base is TimeBase.WALL]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _physical_list(self, depth: int) -> PieoList:
        while len(self.level_lists) <= depth:
            self.level_lists.append(self._list_factory(None))
        return self.level_lists[depth]

    def _wire(self, node: SchedNode, depth: int) -> None:
        node.depth = depth
        node.tree = self
        group_id = next(self._group_ids)
        physical = self._physical_list(depth)
        view = LogicalPieoView(physical, group_id)
        rate = node.rate_bps if node.rate_bps > 0 else self.link_rate_bps
        node.scheduler = PieoScheduler(
            node.algorithm, ordered_list=view, link_rate_bps=rate,
            tracer=self.tracer, metrics=self.metrics)
        for child in node.children.values():
            child.group = group_id
            node.scheduler.flows[child.flow_id] = child
            if isinstance(child, SchedNode):
                self._wire(child, depth + 1)
            else:
                if child.flow_id in self.flows:
                    raise ConfigurationError(
                        f"duplicate flow id {child.flow_id!r}")
                self.flows[child.flow_id] = child
                self.leaf_parent[child.flow_id] = node

    # ------------------------------------------------------------------
    # PieoScheduler-compatible interface
    # ------------------------------------------------------------------
    def on_arrival(self, flow_id: Hashable, packet: Packet,
                   now: Time) -> bool:
        """Packet arrival at a leaf flow; activates ancestors whose
        subtrees just became backlogged (independent per-level enqueue,
        Fig. 4 steps 1a-1c)."""
        self.now = now
        flow = self.flows[flow_id]
        parent = self.leaf_parent[flow_id]
        was_empty = flow.push(packet)
        activated = False
        if was_empty:
            self._activate(parent, flow, now)
            activated = True
        node = parent
        while node.parent is not None:
            # Residency in the parent's view (LogicalPieoView.__contains__
            # without its frame): the node's group is that view's group.
            element = node.parent.scheduler._physical.find(node.flow_id)
            if element is None or element.group != node.group:
                self._activate(node.parent, node, now)
                activated = True
            node = node.parent
        return activated

    def schedule(self, now: Time) -> List[Packet]:
        """One end-to-end scheduling decision, root PIEO downward
        (Fig. 4 steps 2a-2e)."""
        self.now = now
        packets = self.root.scheduler.schedule(now)
        if packets:
            self.decisions += 1
        return packets

    def next_eligible_time(self, now: Time) -> Time:
        """Earliest *future* wall-clock instant at which any wall-based
        level may newly become schedulable.

        Instants <= now are skipped: an element eligible right now that
        still did not transmit is blocked by an ancestor level, and that
        ancestor's own (future) send time is the real wake-up point.
        """
        earliest = math.inf
        for physical, group_id in self._wall_scans:
            for element in physical.snapshot():
                if element.group == group_id:
                    send_time = element.send_time
                    if now < send_time < earliest:
                        earliest = send_time
        return earliest

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _activate(self, parent: SchedNode, child, now: Time) -> None:
        ctx = SchedulerContext(parent.scheduler, now, reason="arrival")
        parent.algorithm.pre_enqueue(ctx, child)

    def _all_nodes(self, node: SchedNode):
        yield node
        for child in node.children.values():
            if isinstance(child, SchedNode):
                yield from self._all_nodes(child)


def two_level_tree(root_algorithm: SchedulingAlgorithm,
                   node_algorithms: List[SchedulingAlgorithm],
                   flows_per_node: int,
                   node_rate_bps: Optional[List[float]] = None,
                   flow_weights: Optional[List[float]] = None,
                   ) -> Tuple[SchedNode, List[FlowQueue]]:
    """Build the evaluation topology of Section 6.3: level-2 nodes under
    a root, each with ``flows_per_node`` leaf flows.

    Returns the root node and the flat list of leaf flows (ids
    ``"n{i}.f{j}"``).
    """
    root = SchedNode("root", root_algorithm)
    leaves: List[FlowQueue] = []
    for node_index, algorithm in enumerate(node_algorithms):
        rate = (node_rate_bps[node_index]
                if node_rate_bps is not None else 0.0)
        node = SchedNode(f"n{node_index}", algorithm, rate_bps=rate)
        root.add_child(node)
        for flow_index in range(flows_per_node):
            weight = 1.0
            if flow_weights is not None:
                weight = flow_weights[flow_index % len(flow_weights)]
            flow = FlowQueue(f"n{node_index}.f{flow_index}", weight=weight)
            node.add_child(flow)
            leaves.append(flow)
    return root, leaves
