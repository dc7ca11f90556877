"""Cycle-accurate model of the PIEO scheduler hardware design (Section 5).

The model reproduces the micro-architecture of Fig. 5 exactly:

* the ordered list is stored as an array of ``2 * ceil(N / s)`` sublists of
  size ``s = ceil(sqrt(N))`` in (modelled) SRAM;
* a pointer array (*Ordered-Sublist-Array*) in flip-flops orders the
  sublists by their smallest rank, with empty sublists parked in a suffix
  partition;
* every primitive operation — ``enqueue(f)``, ``dequeue()``,
  ``dequeue(f)`` — executes the four-cycle sequence of Section 5.2,
  reading at most two sublists (the two ports of dual-port SRAM) and
  running parallel compares + priority encoders over O(sqrt(N)) lanes;
* **Invariant 1** is maintained: there are never two consecutive
  partially-full sublists in the pointer array, bounding the number of
  sublists at ``2 * ceil(N / s)`` (the paper's 2x SRAM overhead).

Cycle, SRAM-port, comparator, and encoder usage are charged to an
:class:`repro.core.opstats.OpCounters` so scheduling rate and scalability
experiments can be driven from the model.

One documented extension beyond the paper's prose: ``dequeue`` accepts an
optional ``group_range`` filter used by hierarchical scheduling
(Section 4.3).  The per-sublist ``smallest_send_time`` summary does not
capture group membership, so when a group filter is active the model may
have to examine more than one candidate sublist before finding a
qualifying element; each extra sublist examined is charged one extra cycle
and one extra SRAM read, a conservative cost model for the wider predicate
evaluation the paper sketches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.element import Element, Time
from repro.core.interfaces import PieoList
from repro.core.opstats import OpCounters
from repro.core.pieo.structures import OrderedSublistArray, Sublist
from repro.errors import (CapacityError, DuplicateFlowError,
                          InvariantViolation)

#: Clock cycles per primitive operation (Section 5.2 / Section 6.2).
CYCLES_PER_OP = 4


@dataclass
class OpTrace:
    """Record of the last primitive operation, for worked-example tests
    mirroring Figs. 6 and 7."""

    op: str
    selected_sublist: Optional[int] = None
    neighbor_sublist: Optional[int] = None
    used_fresh_sublist: bool = False
    position_in_sublist: Optional[int] = None
    moved_flow: Optional[Hashable] = None
    extra_sublists_scanned: int = 0
    sublists_read: List[int] = field(default_factory=list)
    sublists_written: List[int] = field(default_factory=list)


def default_sublist_size(capacity: int) -> int:
    """The paper's choice: sublists of size ceil(sqrt(N))."""
    return max(1, math.isqrt(capacity - 1) + 1) if capacity > 1 else 1


class PieoHardwareList(PieoList):
    """The PIEO ordered list exactly as built in hardware.

    Parameters
    ----------
    capacity:
        Maximum number of resident elements (``N``).
    sublist_size:
        Elements per sublist; defaults to ``ceil(sqrt(N))``.  Exposed for
        the sublist-size ablation benchmark.
    self_check:
        When true, run the full invariant checker after every primitive
        operation.  Slow; used by the test suite.

    Cycle/SRAM/comparator work is charged to the model's own
    :class:`~repro.core.opstats.OpCounters`, exposed as ``counters``.
    """

    def __init__(self, capacity: int,
                 sublist_size: Optional[int] = None,
                 self_check: bool = False) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self.sublist_size = (default_sublist_size(capacity)
                             if sublist_size is None else sublist_size)
        if self.sublist_size < 1:
            raise ValueError("sublist_size must be >= 1")
        self.num_sublists = 2 * math.ceil(capacity / self.sublist_size)
        self.sublists: List[Sublist] = [
            Sublist(i, self.sublist_size) for i in range(self.num_sublists)
        ]
        self.pointer_array = OrderedSublistArray(self.num_sublists)
        self.counters = OpCounters()
        self.last_trace: Optional[OpTrace] = None
        self._flow_sublist: Dict[Hashable, int] = {}
        self._count = 0
        self._next_seq = 0
        self._self_check = self_check

    # ------------------------------------------------------------------
    # OrderedList interface
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return self._count

    def __contains__(self, flow_id: Hashable) -> bool:
        return flow_id in self._flow_sublist

    def snapshot(self) -> List[Element]:
        elements: List[Element] = []
        for entry in self.pointer_array.nonempty_entries():
            elements.extend(self.sublists[entry.sublist_id].entries)
        return elements

    # ------------------------------------------------------------------
    # enqueue(f) — Section 5.2, Fig. 6
    # ------------------------------------------------------------------
    def enqueue(self, element: Element) -> None:
        if self._count >= self._capacity:
            raise CapacityError(
                f"PIEO full (capacity {self._capacity})")
        if element.flow_id in self._flow_sublist:
            raise DuplicateFlowError(
                f"flow {element.flow_id!r} already resident")
        element.seq = self._next_seq
        self._next_seq += 1
        trace = OpTrace(op="enqueue")

        # Cycle 1: parallel compare (smallest_rank > f.rank) over the
        # pointer array + priority encode; empty sublists compare as +inf.
        self.counters.charge_compare(len(self.pointer_array))
        self.counters.charge_encode()
        if self.pointer_array.num_nonempty == 0:
            self._enqueue_into_fresh(element, destination=0, trace=trace)
            self._finish_op(trace, cycles=CYCLES_PER_OP)
            return
        first_larger = self._first_pointer_with_larger_rank(element.rank)
        selected_pos = max(0, first_larger - 1)
        selected_entry = self.pointer_array.entries[selected_pos]
        sublist = self.sublists[selected_entry.sublist_id]
        trace.selected_sublist = sublist.sublist_id

        # Cycle 2: read S from SRAM; if S is full also read S' (the right
        # neighbour if not full, else a fresh empty sublist).
        self._read_sublist(sublist, trace)
        neighbor: Optional[Sublist] = None
        if sublist.is_full:
            neighbor = self._enqueue_overflow_target(selected_pos, trace)
            self._read_sublist(neighbor, trace)

        # Cycle 3: priority encoding inside S (and S') to locate positions.
        self.counters.charge_compare(2 * self.sublist_size)
        self.counters.charge_encode()
        position = sublist.rank_insert_position(element.rank)
        trace.position_in_sublist = position
        if neighbor is not None:
            self.counters.charge_compare(self.sublist_size)
            self.counters.charge_encode()
            if position >= sublist.size:
                moved = element  # new element is the (conceptual) tail
            else:
                moved = sublist.pop_tail()
                sublist.insert_at(position, element)
            neighbor.push_head(moved)
            trace.moved_flow = moved.flow_id
            self._flow_sublist[moved.flow_id] = neighbor.sublist_id
        else:
            sublist.insert_at(position, element)

        # Cycle 4: write back S (and S'), refresh pointer entries.
        if self._flow_sublist.get(element.flow_id) is None:
            self._flow_sublist[element.flow_id] = sublist.sublist_id
        self._write_back(sublist, trace)
        if neighbor is not None:
            self._write_back(neighbor, trace)
        self._count += 1
        self._finish_op(trace, cycles=CYCLES_PER_OP)

    # ------------------------------------------------------------------
    # dequeue() — Section 5.2, Fig. 7
    # ------------------------------------------------------------------
    def dequeue(self, now: Time,
                group_range: Optional[Tuple[int, int]] = None,
                ) -> Optional[Element]:
        trace = OpTrace(op="dequeue")

        # Cycle 1: parallel compare (now >= smallest_send_time) over the
        # pointer array + priority encode.
        self.counters.charge_compare(len(self.pointer_array))
        self.counters.charge_encode()
        selection = self._select_dequeue_sublist(now, group_range, trace)
        if selection is None:
            self.counters.charge_op("dequeue_null", 1)
            self.last_trace = trace
            return None
        selected_pos, position = selection
        return self._extract(selected_pos, position, trace,
                             extra_cycles=trace.extra_sublists_scanned)

    def peek(self, now: Time,
             group_range: Optional[Tuple[int, int]] = None,
             ) -> Optional[Element]:
        selection = self._select_dequeue_sublist(now, group_range,
                                                 OpTrace(op="peek"),
                                                 charge=False)
        if selection is None:
            return None
        selected_pos, position = selection
        entry = self.pointer_array.entries[selected_pos]
        return self.sublists[entry.sublist_id].entries[position]

    # ------------------------------------------------------------------
    # dequeue(f) — Section 5.2
    # ------------------------------------------------------------------
    def dequeue_flow(self, flow_id: Hashable) -> Optional[Element]:
        trace = OpTrace(op="dequeue_flow")
        sublist_id = self._flow_sublist.get(flow_id)
        if sublist_id is None:
            self.counters.charge_op("dequeue_flow_null", 1)
            self.last_trace = trace
            return None
        # Cycle 1: locate the tracked sublist in the pointer array.
        self.counters.charge_compare(len(self.pointer_array))
        self.counters.charge_encode()
        selected_pos = self.pointer_array.position_of_sublist(sublist_id)
        sublist = self.sublists[sublist_id]
        # Cycle 3's predicate is (f == Rank-Sublist[i].flow_id).
        position = sublist.index_of_flow(flow_id)
        if position is None:
            raise InvariantViolation(
                f"flow map points at sublist {sublist_id} but flow "
                f"{flow_id!r} is not there")
        return self._extract(selected_pos, position, trace)

    # ------------------------------------------------------------------
    # PieoList helpers
    # ------------------------------------------------------------------
    def min_send_time(self) -> Time:
        smallest = math.inf
        for entry in self.pointer_array.nonempty_entries():
            if entry.smallest_send_time < smallest:
                smallest = entry.smallest_send_time
        return smallest

    # ------------------------------------------------------------------
    # Shared extract path (cycles 2-4 of dequeue()/dequeue(f))
    # ------------------------------------------------------------------
    def _extract(self, selected_pos: int, position: int, trace: OpTrace,
                 extra_cycles: int = 0) -> Element:
        entry = self.pointer_array.entries[selected_pos]
        sublist = self.sublists[entry.sublist_id]
        trace.selected_sublist = sublist.sublist_id
        trace.position_in_sublist = position

        # Cycle 2: read S; if S is full, also read a non-full neighbour S'
        # so an element can be moved into S to keep Invariant 1.
        self._read_sublist(sublist, trace)
        neighbor_pos: Optional[int] = None
        if sublist.is_full:
            neighbor_pos = self._dequeue_refill_source(selected_pos)
            if neighbor_pos is not None:
                neighbor_entry = self.pointer_array.entries[neighbor_pos]
                neighbor = self.sublists[neighbor_entry.sublist_id]
                self._read_sublist(neighbor, trace)

        # Cycle 3: priority encode inside S for the dequeue position (done
        # by the caller) and move an element from S' into S if needed.
        self.counters.charge_compare(self.sublist_size)
        self.counters.charge_encode()
        element = sublist.remove_at(position)
        del self._flow_sublist[element.flow_id]
        neighbor = None
        if neighbor_pos is not None:
            neighbor_entry = self.pointer_array.entries[neighbor_pos]
            neighbor = self.sublists[neighbor_entry.sublist_id]
            self.counters.charge_compare(2 * self.sublist_size)
            self.counters.charge_encode()
            if neighbor_pos < selected_pos:
                moved = neighbor.pop_tail()
                sublist.push_head(moved)
            else:
                moved = neighbor.pop_head()
                sublist.push_tail(moved)
            trace.moved_flow = moved.flow_id
            self._flow_sublist[moved.flow_id] = sublist.sublist_id

        # Cycle 4: write back and refresh pointer entries; park any sublist
        # that became empty at the head of the empty partition.
        self._write_back(sublist, trace)
        if neighbor is not None:
            self._write_back(neighbor, trace)
        self._count -= 1
        for maybe_empty in (neighbor, sublist):
            if maybe_empty is not None and maybe_empty.is_empty:
                pos = self.pointer_array.position_of_sublist(
                    maybe_empty.sublist_id)
                self.pointer_array.deactivate(pos)
        self._finish_op(trace, cycles=CYCLES_PER_OP + extra_cycles)
        return element

    # ------------------------------------------------------------------
    # Selection logic
    # ------------------------------------------------------------------
    def _first_pointer_with_larger_rank(self, rank: float) -> int:
        """Priority-encoder output j of cycle 1 of enqueue.

        Returns ``len(pointer_array)`` when no entry matches (only
        possible when there are no empty sublists, whose +inf rank always
        matches).
        """
        for index, entry in enumerate(self.pointer_array.entries):
            if entry.smallest_rank > rank:
                return index
        return len(self.pointer_array)

    def _enqueue_overflow_target(self, selected_pos: int,
                                 trace: OpTrace) -> Sublist:
        """Pick S' for a full selected sublist: the immediate right
        neighbour if not full, else a fresh empty sublist shifted to the
        immediate right of S (Invariant 1)."""
        right_pos = selected_pos + 1
        if right_pos < self.pointer_array.num_nonempty:
            right_entry = self.pointer_array.entries[right_pos]
            right = self.sublists[right_entry.sublist_id]
            if not right.is_full:
                trace.neighbor_sublist = right.sublist_id
                return right
        empty_pos = self.pointer_array.first_empty_position()
        if empty_pos is None:
            raise InvariantViolation(
                "no empty sublist available for overflow; Invariant 1 "
                "bound was exceeded")
        fresh_entry = self.pointer_array.entries[empty_pos]
        self.pointer_array.activate_at(empty_pos, right_pos)
        trace.neighbor_sublist = fresh_entry.sublist_id
        trace.used_fresh_sublist = True
        return self.sublists[fresh_entry.sublist_id]

    def _enqueue_into_fresh(self, element: Element, destination: int,
                            trace: OpTrace) -> None:
        """Enqueue into an entirely empty list."""
        empty_pos = self.pointer_array.first_empty_position()
        if empty_pos is None:
            raise InvariantViolation("empty list but no empty sublist")
        entry = self.pointer_array.entries[empty_pos]
        self.pointer_array.activate_at(empty_pos, destination)
        sublist = self.sublists[entry.sublist_id]
        trace.selected_sublist = sublist.sublist_id
        trace.used_fresh_sublist = True
        trace.position_in_sublist = 0
        self._read_sublist(sublist, trace)
        sublist.insert_at(0, element)
        self._flow_sublist[element.flow_id] = sublist.sublist_id
        self._write_back(sublist, trace)
        self._count += 1

    def _select_dequeue_sublist(self, now: Time,
                                group_range: Optional[Tuple[int, int]],
                                trace: OpTrace,
                                charge: bool = True,
                                ) -> Optional[Tuple[int, int]]:
        """Cycle-1 selection: the first pointer-array position whose
        sublist contains an eligible element, together with the in-sublist
        position of that element.

        Without a group filter this is a single parallel compare on the
        ``smallest_send_time`` summaries.  With a group filter, candidate
        sublists are examined in order (extra scans are charged by the
        caller via ``trace.extra_sublists_scanned``).
        """
        entries = self.pointer_array.nonempty_entries()
        for pointer_pos, entry in enumerate(entries):
            if now < entry.smallest_send_time:
                continue
            sublist = self.sublists[entry.sublist_id]
            position = sublist.first_eligible_index(now, group_range)
            if position is not None:
                return pointer_pos, position
            if group_range is None:
                raise InvariantViolation(
                    f"summary says sublist {entry.sublist_id} has an "
                    f"eligible element at t={now} but none found")
            if charge:
                trace.extra_sublists_scanned += 1
                self.counters.charge_sram_read()
                self.counters.charge_compare(self.sublist_size)
                self.counters.charge_encode()
        return None

    def _dequeue_refill_source(self, selected_pos: int) -> Optional[int]:
        """Pick the pointer position of a non-full, non-empty neighbour of
        S to donate an element (Fig. 7, cycle 2).  Prefers the left
        neighbour; returns None when both neighbours are full or absent,
        in which case S simply becomes partially full."""
        for candidate in (selected_pos - 1, selected_pos + 1):
            if 0 <= candidate < self.pointer_array.num_nonempty:
                entry = self.pointer_array.entries[candidate]
                sublist = self.sublists[entry.sublist_id]
                if not sublist.is_full and not sublist.is_empty:
                    return candidate
        return None

    # ------------------------------------------------------------------
    # SRAM / bookkeeping helpers
    # ------------------------------------------------------------------
    def _read_sublist(self, sublist: Sublist, trace: OpTrace) -> None:
        self.counters.charge_sram_read()
        trace.sublists_read.append(sublist.sublist_id)

    def _write_back(self, sublist: Sublist, trace: OpTrace) -> None:
        self.counters.charge_sram_write()
        trace.sublists_written.append(sublist.sublist_id)
        position = self.pointer_array.position_of_sublist(sublist.sublist_id)
        self.pointer_array.entries[position].refresh(sublist)

    def _finish_op(self, trace: OpTrace, cycles: int) -> None:
        self.counters.charge_op(trace.op, cycles)
        self.last_trace = trace
        if self._self_check:
            self.check()

    # ------------------------------------------------------------------
    # Self checks
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Verify every structural invariant of the design.

        * pointer-array / SRAM consistency,
        * global (rank, arrival) order across the stitched sublists,
        * Invariant 1: no two consecutive partially-full sublists,
        * flow-map consistency and element count.
        """
        self.pointer_array.check(self.sublists)
        for sublist in self.sublists:
            sublist.check()
        elements = self.snapshot()
        if len(elements) != self._count:
            raise InvariantViolation("element count out of sync")
        for left, right in zip(elements, elements[1:]):
            if left.sort_key() > right.sort_key():
                raise InvariantViolation("global rank order broken")
        prefix = self.pointer_array.nonempty_entries()
        for left, right in zip(prefix, prefix[1:]):
            left_full = left.num >= self.sublist_size
            right_full = right.num >= self.sublist_size
            if not left_full and not right_full:
                raise InvariantViolation(
                    "Invariant 1 violated: two consecutive partially-full "
                    f"sublists ({left.sublist_id}, {right.sublist_id})")
        for flow_id, sublist_id in self._flow_sublist.items():
            if self.sublists[sublist_id].index_of_flow(flow_id) is None:
                raise InvariantViolation(
                    f"flow map stale for flow {flow_id!r}")
