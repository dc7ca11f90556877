"""Reference (software oracle) implementation of the PIEO primitive.

This implementation is *semantically exact* with respect to Section 3.1 of
the paper and deliberately simple: an array kept sorted by ``(rank, seq)``
with a linear eligibility scan at dequeue.  It makes no performance or
hardware-fidelity claims — it exists so the cycle-accurate hardware model
(:mod:`repro.core.pieo`) can be differentially tested against it, and as a
convenient pure-software PIEO for simulations where hardware accounting is
not needed.

Two storage modes share the same observable semantics:

* **flat** (the default): one array sorted by ``(rank, seq)``, exactly
  the paper's mental model;
* **grouped**: per-group sorted arrays, entered lazily on the first
  single-group ``dequeue``/``peek``.  Logical-PIEO views
  (:class:`repro.sched.framework.LogicalPieoView`) and the schedulers
  built on them issue *only* single-group operations, and maintaining
  a global sorted array next to the per-group ones doubles every
  insert/remove for no benefit — the grouped mode keeps only the
  per-group arrays and derives the global (rank, seq) order on demand
  for the rare whole-list operation
  (``snapshot``, flat ``dequeue``/``peek``, ``min_send_time``).  Keys are
  unique (the FIFO ``seq`` breaks rank ties), so the derived order is
  exactly the flat order and results are bit-identical.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.element import Element, Time
from repro.core.interfaces import PieoList
from repro.errors import CapacityError, DuplicateFlowError


class ReferencePieo(PieoList):
    """Exact-semantics PIEO ordered list.

    Parameters
    ----------
    capacity:
        Maximum number of resident elements.  Defaults to unbounded
        (``None``) for pure-software use; pass a value to mirror a
        hardware list of fixed size.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._items: List[Element] = []
        self._keys: List[Tuple] = []  # parallel (rank, seq) keys for bisect
        self._resident: Dict[Hashable, Element] = {}
        self._next_seq = 0
        # Grouped storage mode (see module docstring): entered on the
        # first single-group dequeue/peek; flat (ungrouped) use never
        # pays for it.
        self._grouped = False
        self._group_items: Dict[int, List[Element]] = {}
        self._group_keys: Dict[int, List[Tuple]] = {}

    # ------------------------------------------------------------------
    # OrderedList interface
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        if self._capacity is None:
            return int(2 ** 62)
        return self._capacity

    def __len__(self) -> int:
        return len(self._resident)

    def enqueue(self, element: Element) -> None:
        if (self._capacity is not None
                and len(self._resident) >= self._capacity):
            raise CapacityError(
                f"ReferencePieo full (capacity {self._capacity})")
        if element.flow_id in self._resident:
            raise DuplicateFlowError(
                f"flow {element.flow_id!r} already resident")
        element.seq = self._next_seq
        self._next_seq += 1
        key = (element.rank, element.seq)
        if self._grouped:
            keys = self._group_keys.get(element.group)
            if keys is None:
                self._group_items[element.group] = [element]
                self._group_keys[element.group] = [key]
            else:
                position = bisect.bisect_left(keys, key)
                keys.insert(position, key)
                self._group_items[element.group].insert(position, element)
        else:
            position = bisect.bisect_left(self._keys, key)
            self._items.insert(position, element)
            self._keys.insert(position, key)
        self._resident[element.flow_id] = element

    def dequeue_flow(self, flow_id: Hashable) -> Optional[Element]:
        element = self._resident.get(flow_id)
        if element is None:
            return None
        if self._grouped:
            self._group_remove(element)
            del self._resident[flow_id]
            return element
        return self._pop(self._index_of(element))

    def snapshot(self) -> List[Element]:
        if not self._grouped:
            return list(self._items)
        groups = [pairs for pairs in self._group_items.values() if pairs]
        if len(groups) == 1:
            return list(groups[0])
        merged: List[Tuple[Tuple, Element]] = []
        for group, items in self._group_items.items():
            merged.extend(zip(self._group_keys[group], items))
        merged.sort(key=lambda pair: pair[0])
        return [element for _, element in merged]

    def __contains__(self, flow_id: Hashable) -> bool:
        return flow_id in self._resident

    def find(self, flow_id: Hashable) -> Optional[Element]:
        return self._resident.get(flow_id)

    # ------------------------------------------------------------------
    # PieoList interface
    # ------------------------------------------------------------------
    def dequeue(self, now: Time,
                group_range: Optional[Tuple[int, int]] = None,
                ) -> Optional[Element]:
        if group_range is not None and group_range[0] == group_range[1]:
            if not self._grouped:
                self._enter_grouped_mode()
            items = self._group_items.get(group_range[0])
            if items:
                for position, element in enumerate(items):
                    if element.send_time <= now:
                        items.pop(position)
                        self._group_keys[element.group].pop(position)
                        del self._resident[element.flow_id]
                        return element
            return None
        if self._grouped:
            found = self._best_across_groups(now, group_range)
            if found is None:
                return None
            group, position = found
            element = self._group_items[group].pop(position)
            self._group_keys[group].pop(position)
            del self._resident[element.flow_id]
            return element
        position = self._first_eligible(now, group_range)
        if position is None:
            return None
        return self._pop(position)

    def peek(self, now: Time,
             group_range: Optional[Tuple[int, int]] = None,
             ) -> Optional[Element]:
        if group_range is not None and group_range[0] == group_range[1]:
            if not self._grouped:
                self._enter_grouped_mode()
            items = self._group_items.get(group_range[0])
            if items:
                for element in items:
                    if element.send_time <= now:
                        return element
            return None
        if self._grouped:
            found = self._best_across_groups(now, group_range)
            if found is None:
                return None
            group, position = found
            return self._group_items[group][position]
        position = self._first_eligible(now, group_range)
        if position is None:
            return None
        return self._items[position]

    def min_send_time(self) -> Time:
        if self._grouped:
            smallest = math.inf
            for items in self._group_items.values():
                for element in items:
                    if element.send_time < smallest:
                        smallest = element.send_time
            return smallest
        if not self._items:
            return math.inf
        return min(element.send_time for element in self._items)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _first_eligible(self, now: Time,
                        group_range: Optional[Tuple[int, int]],
                        ) -> Optional[int]:
        # The predicate is inlined (rather than Element.is_eligible) —
        # this scan dominates scheduling-decision cost in profiles.
        if group_range is None:
            for position, element in enumerate(self._items):
                if element.send_time <= now:
                    return position
        else:
            lo, hi = group_range
            for position, element in enumerate(self._items):
                if element.send_time <= now and lo <= element.group <= hi:
                    return position
        return None

    def _best_across_groups(self, now: Time,
                            group_range: Optional[Tuple[int, int]],
                            ) -> Optional[Tuple[int, int]]:
        """(group, position) of the smallest-keyed eligible element in
        grouped mode.  Each group array is key-sorted, so its first
        eligible element is its candidate; the global winner is the
        smallest candidate key."""
        lo_hi = group_range
        best_key = None
        best = None
        for group, items in self._group_items.items():
            if lo_hi is not None and not lo_hi[0] <= group <= lo_hi[1]:
                continue
            keys = self._group_keys[group]
            for position, element in enumerate(items):
                if element.send_time <= now:
                    key = keys[position]
                    if best_key is None or key < best_key:
                        best_key = key
                        best = (group, position)
                    break
        return best

    def _enter_grouped_mode(self) -> None:
        for element, key in zip(self._items, self._keys):
            self._group_items.setdefault(element.group, []).append(element)
            self._group_keys.setdefault(element.group, []).append(key)
        self._items.clear()
        self._keys.clear()
        self._grouped = True

    def _group_remove(self, element: Element) -> None:
        keys = self._group_keys[element.group]
        items = self._group_items[element.group]
        position = bisect.bisect_left(keys, (element.rank, element.seq))
        while items[position] is not element:
            position += 1
        keys.pop(position)
        items.pop(position)

    def _index_of(self, element: Element) -> int:
        position = bisect.bisect_left(self._keys,
                                      (element.rank, element.seq))
        while self._items[position] is not element:
            position += 1
        return position

    def _pop(self, position: int) -> Element:
        element = self._items.pop(position)
        self._keys.pop(position)
        del self._resident[element.flow_id]
        return element
