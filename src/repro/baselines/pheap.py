"""P-heap: the pipelined-heap priority queue baseline (Section 7).

"P-heap [7] is a scalable heap-based implementation of priority queue in
hardware.  Unfortunately, a heap-based priority queue cannot efficiently
implement the 'Extract-Out' primitive in PIEO."

This model implements a binary heap the way P-heap lays it out in
hardware — one SRAM block per level, so one level is touched per cycle
as an insert/delete token trickles down — and charges cycles
accordingly:

* ``enqueue``  : one cycle per level touched — O(log N);
* ``dequeue_min``: root removal + trickle-down — O(log N);
* ``dequeue(now)`` (the Extract-Out semantics): the heap property says
  *nothing* about where the smallest **eligible** element lives, so the
  hardware must scan; the model performs a heap-order traversal that
  prunes only on rank (never on eligibility), visiting up to N nodes —
  the inefficiency the paper points at;
* ``dequeue(f)``: same problem — a positional search.

Resource shape: O(N) SRAM like PIEO, but only O(log N) comparators —
cheaper logic than PIEO, bought by giving up Extract-Out.
"""

from __future__ import annotations

import heapq
import math
from typing import Hashable, List, Optional, Tuple

from repro.core.element import Element, Time
from repro.core.interfaces import PieoList
from repro.core.opstats import OpCounters
from repro.errors import CapacityError, DuplicateFlowError


class PHeap(PieoList):
    """Cycle-modeled binary min-heap keyed by ``(rank, seq)``."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._heap: List[Element] = []
        self._next_seq = 0
        self.counters = OpCounters()

    # ------------------------------------------------------------------
    # Interface basics
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, flow_id: Hashable) -> bool:
        return any(element.flow_id == flow_id for element in self._heap)

    def snapshot(self) -> List[Element]:
        return sorted(self._heap, key=lambda element: element.sort_key())

    def min_send_time(self) -> Time:
        if not self._heap:
            return math.inf
        return min(element.send_time for element in self._heap)

    def levels(self) -> int:
        """Heap depth == SRAM levels touched by a trickle operation."""
        return max(1, math.ceil(math.log2(len(self._heap) + 1)))

    # ------------------------------------------------------------------
    # O(log N) operations — the heap's home turf
    # ------------------------------------------------------------------
    def enqueue(self, element: Element) -> None:
        if len(self._heap) >= self._capacity:
            raise CapacityError(f"P-heap full (capacity {self._capacity})")
        if element.flow_id in self:
            raise DuplicateFlowError(
                f"flow {element.flow_id!r} already resident")
        element.seq = self._next_seq
        self._next_seq += 1
        self._heap.append(element)
        self._sift_up(len(self._heap) - 1)
        self.counters.charge_op("enqueue", self.levels())

    def dequeue_min(self) -> Optional[Element]:
        """The priority-queue dequeue: smallest rank, eligibility
        ignored (what a heap can do in O(log N))."""
        if not self._heap:
            self.counters.charge_op("dequeue_null", 1)
            return None
        cycles = self.levels()
        smallest = self._remove_at(0)
        self.counters.charge_op("dequeue_min", cycles)
        return smallest

    # ------------------------------------------------------------------
    # Extract-Out semantics — where the heap structure stops helping
    # ------------------------------------------------------------------
    def dequeue(self, now: Time,
                group_range: Optional[Tuple[int, int]] = None,
                ) -> Optional[Element]:
        """Smallest ranked *eligible* element.

        The heap invariant orders parents before children by rank only,
        so eligibility-aware extraction must search the tree; a node is
        visited before its children (best-first traversal) and nothing
        prunes on eligibility — up to N visits, each charged a cycle and
        a comparator."""
        best = self._search_eligible(now, group_range)
        if best is None:
            self.counters.charge_op("dequeue_null", 1)
            return None
        index, _ = best
        element = self._remove_at(index)
        self.counters.charge_op("dequeue", self._last_search_cost
                                + self.levels())
        return element

    def peek(self, now: Time,
             group_range: Optional[Tuple[int, int]] = None,
             ) -> Optional[Element]:
        best = self._search_eligible(now, group_range, charge=False)
        return self._heap[best[0]] if best is not None else None

    def dequeue_flow(self, flow_id: Hashable) -> Optional[Element]:
        """Positional search (no index structure in a plain heap)."""
        for index, element in enumerate(self._heap):
            self.counters.charge_compare(1)
            if element.flow_id == flow_id:
                removed = self._remove_at(index)
                self.counters.charge_op("dequeue_flow",
                                        index + 1 + self.levels())
                return removed
        self.counters.charge_op("dequeue_flow_null", 1)
        return None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    _last_search_cost = 0

    def _search_eligible(self, now: Time,
                         group_range: Optional[Tuple[int, int]],
                         charge: bool = True) -> Optional[Tuple[int, Element]]:
        """Best-first traversal: expand nodes in rank order; the first
        eligible node found is the answer (all unexpanded nodes have
        larger rank).  Worst case visits every node."""
        if not self._heap:
            return None
        visited = 0
        frontier = [(self._heap[0].sort_key(), 0)]
        while frontier:
            _, index = heapq.heappop(frontier)
            visited += 1
            if charge:
                self.counters.charge_compare(1)
            element = self._heap[index]
            if element.is_eligible(now, group_range):
                self._last_search_cost = visited
                return index, element
            for child in (2 * index + 1, 2 * index + 2):
                if child < len(self._heap):
                    heapq.heappush(frontier,
                                   (self._heap[child].sort_key(), child))
        self._last_search_cost = visited
        return None

    def _remove_at(self, index: int) -> Element:
        element = self._heap[index]
        last = self._heap.pop()
        if index < len(self._heap):
            self._heap[index] = last
            parent = (index - 1) // 2
            if index > 0 and last.sort_key() < self._heap[
                    parent].sort_key():
                self._sift_up(index)
            else:
                self._sift_down(index)
        return element

    def _sift_up(self, index: int) -> None:
        heap = self._heap
        while index > 0:
            parent = (index - 1) // 2
            self.counters.charge_compare(1)
            if heap[index].sort_key() < heap[parent].sort_key():
                heap[index], heap[parent] = heap[parent], heap[index]
                index = parent
            else:
                return

    def _sift_down(self, index: int) -> None:
        heap = self._heap
        size = len(heap)
        while True:
            smallest = index
            for child in (2 * index + 1, 2 * index + 2):
                if child < size:
                    self.counters.charge_compare(1)
                    if heap[child].sort_key() < heap[smallest].sort_key():
                        smallest = child
            if smallest == index:
                return
            heap[index], heap[smallest] = heap[smallest], heap[index]
            index = smallest

    def check(self) -> None:
        """Verify the heap property (test hook)."""
        for index in range(1, len(self._heap)):
            parent = (index - 1) // 2
            assert (self._heap[parent].sort_key()
                    <= self._heap[index].sort_key()), "heap order broken"
