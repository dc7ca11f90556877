"""Reference (software oracle) implementation of the PIEO primitive.

This implementation is *semantically exact* with respect to Section 3.1 of
the paper: elements are ordered by ``(rank, seq)`` and a dequeue returns
the first one whose ``send_time`` has passed.  It makes no
hardware-fidelity claims — it exists so the cycle-accurate hardware model
(:mod:`repro.core.pieo`) can be differentially tested against it, and it
is the default pure-software PIEO under every simulation.

Three storage modes share the same observable semantics.  Keys are
unique (the FIFO ``seq`` breaks rank ties), so each mode yields exactly
the flat order and results are bit-identical:

* **flat** (the default): one array sorted by ``(rank, seq)``, exactly
  the paper's mental model, with a linear eligibility scan at dequeue.
  It is the cheapest layout while the list is short.
* **sublists**: once flat storage holds more than :data:`SUBLIST_MAX`
  elements it is cut, for good, into ordered sublists of at most that
  many elements — the Ordered-Sublist-Array of Section 5 in software.
  Each sublist keeps its elements' ranks, a routing rank that an
  enqueue bisects to pick its sublist (the paper's smallest-rank
  pointer array; at least every rank in the sublist and at most every
  rank after it) and a lower bound on its send times (the hardware's
  ``smallest_send_time``).  An insert lowers the bound; a dequeue scan
  that finds nothing eligible in the sublist sets it to the sublist's
  exact minimum.  A dequeue skips every sublist whose bound is above
  ``now``, so no operation shifts or scans the whole list.  An emptied
  sublist is removed and an overflowing one is split in two.  Ranks
  alone place an enqueue: its ``seq`` is the largest yet, so it goes
  after every equal rank.
* **grouped**: per-group sorted arrays, entered lazily (from either
  other mode) on the first single-group ``dequeue``/``peek``.
  The schedulers of a hierarchy's nodes, which share one list per level
  and read their logical PIEOs through one-group ranges, issue *only*
  single-group ``dequeue``/``peek`` operations, and maintaining a
  global sorted order next to the per-group arrays doubles every
  insert/remove for no benefit — the
  grouped mode keeps only the per-group arrays and derives the global
  (rank, seq) order on demand for the rare whole-list operation
  (``snapshot``, flat ``dequeue``/``peek``, ``min_send_time``).
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.element import Element, Rank, Time
from repro.core.interfaces import PieoList
from repro.errors import CapacityError, DuplicateFlowError

#: Flat storage that grows past this many elements switches to sublists,
#: and a sublist that grows past it splits in two.  Shorter lists stay
#: flat: a sublist costs a second bisect per enqueue, which lists of a
#: few elements do not win back.
SUBLIST_MAX = 32

#: Elements in the first half of a split (a split sublist holds
#: ``SUBLIST_MAX + 1``), and the length of the sublists a flat list is
#: cut into.
_HALF = (SUBLIST_MAX + 1) // 2


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
        # Sublist storage mode (see module docstring): None until flat
        # storage outgrows SUBLIST_MAX; then four parallel lists with one
        # entry per sublist: its elements, their ranks, its routing rank
        # (unused on the last sublist) and its send-time lower bound.
        self._subs: Optional[List[List[Element]]] = None
        self._sub_ranks: List[List[Rank]] = []
        self._sub_last: List[Rank] = []
        self._sub_low: List[Time] = []
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
        if self._grouped:
            key = (element.rank, element.seq)
            keys = self._group_keys.get(element.group)
            if keys is None:
                self._group_items[element.group] = [element]
                self._group_keys[element.group] = [key]
            else:
                position = bisect.bisect_left(keys, key)
                keys.insert(position, key)
                self._group_items[element.group].insert(position, element)
        elif self._subs is not None:
            rank = element.rank
            last = self._sub_last
            index = bisect.bisect_right(last, rank, 0, len(last) - 1)
            ranks = self._sub_ranks[index]
            items = self._subs[index]
            position = bisect.bisect_right(ranks, rank)
            ranks.insert(position, rank)
            items.insert(position, element)
            low = self._sub_low
            if element.send_time < low[index]:
                low[index] = element.send_time
            if len(ranks) > SUBLIST_MAX:
                # Split in two by slice assignment, not list.insert,
                # so a decision makes the same calls whether or not it
                # splits (or, in dequeue, removes an emptied sublist):
                # calls per decision do not depend on the flow count.
                index += 1
                self._subs[index:index] = [items[_HALF:]]
                del items[_HALF:]
                self._sub_ranks[index:index] = [ranks[_HALF:]]
                del ranks[_HALF:]
                last[index - 1:index - 1] = [ranks[-1]]
                low[index:index] = [low[index - 1]]
        else:
            key = (element.rank, element.seq)
            position = bisect.bisect_left(self._keys, key)
            self._items.insert(position, element)
            self._keys.insert(position, key)
            if len(self._keys) > SUBLIST_MAX:
                self._open_sublists(self._items)
                self._items, self._keys = [], []
        self._resident[element.flow_id] = element

    def dequeue_flow(self, flow_id: Hashable) -> Optional[Element]:
        element = self._resident.get(flow_id)
        if element is None:
            return None
        if self._grouped:
            self._group_remove(element)
            del self._resident[flow_id]
            return element
        if self._subs is not None:
            return self._sub_pop(*self._sub_index_of(element))
        return self._pop(self._index_of(element))

    def snapshot(self) -> List[Element]:
        if self._subs is not None:
            return [element for items in self._subs for element in items]
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
        subs = self._subs
        if group_range is None and subs is None:
            # _first_eligible and _pop, inlined on the flat hot path.
            items = self._items
            for position, element in enumerate(items):
                if element.send_time <= now:
                    del items[position], self._keys[position]
                    del self._resident[element.flow_id]
                    return element
            return None
        if group_range is None:
            # _sub_first_eligible and _sub_pop, inlined on the sublist
            # hot path.
            low = self._sub_low
            for index, bound in enumerate(low):
                if bound > now:
                    continue
                items = subs[index]
                least = math.inf
                for position, element in enumerate(items):
                    send_time = element.send_time
                    if send_time <= now:
                        del items[position], self._sub_ranks[index][position]
                        if not items:
                            del (subs[index], self._sub_ranks[index],
                                 self._sub_last[index], low[index])
                            if not subs:
                                self._open_sublists([])
                        del self._resident[element.flow_id]
                        return element
                    if send_time < least:
                        least = send_time
                low[index] = least
            return None
        if subs is not None:
            found = self._sub_first_eligible(now, group_range)
            return None if found is None else self._sub_pop(*found)
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
        if self._subs is not None:
            found = self._sub_first_eligible(now, group_range)
            if found is None:
                return None
            index, position = found
            return self._subs[index][position]
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
        if self._subs is not None:
            # Exact per sublist, so every bound is tightened on the way.
            low = self._sub_low
            for index, items in enumerate(self._subs):
                low[index] = min([element.send_time for element in items],
                                 default=math.inf)
            return min(low)
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

    def _sub_first_eligible(self, now: Time,
                            group_range: Optional[Tuple[int, int]],
                            ) -> Optional[Tuple[int, int]]:
        """(sublist, position) of the first eligible element in sublist
        mode.  Skips sublists whose send-time bound is above ``now`` and
        tightens the bound of each sublist it scans to the end."""
        lo, hi = group_range if group_range is not None else (None, None)
        low = self._sub_low
        for index, bound in enumerate(low):
            if bound > now:
                continue
            least = math.inf
            for position, element in enumerate(self._subs[index]):
                send_time = element.send_time
                if send_time <= now and (lo is None
                                         or lo <= element.group <= hi):
                    return index, position
                if send_time < least:
                    least = send_time
            low[index] = least
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

    def _open_sublists(self, items: List[Element]) -> None:
        """Enter sublist mode with the key-sorted ``items``, cut into
        sublists of ``_HALF`` (one empty sublist when there are none)."""
        starts = range(0, len(items), _HALF) or (0,)
        self._subs = [items[start:start + _HALF] for start in starts]
        self._sub_ranks = [[element.rank for element in chunk]
                           for chunk in self._subs]
        self._sub_last = [chunk[-1] if chunk else math.inf
                          for chunk in self._sub_ranks]
        self._sub_low = [min([element.send_time for element in chunk],
                             default=math.inf) for chunk in self._subs]

    def _sub_index_of(self, element: Element) -> Tuple[int, int]:
        """(sublist, position) of a resident element in sublist mode.
        Equal ranks may run on across sublists, so the search starts at
        the first sublist that can hold the rank and walks on."""
        rank = element.rank
        last = self._sub_last
        index = bisect.bisect_left(last, rank, 0, len(last) - 1)
        while True:
            items = self._subs[index]
            start = bisect.bisect_left(self._sub_ranks[index], rank)
            for position in range(start, len(items)):
                if items[position] is element:
                    return index, position
            index += 1

    def _sub_pop(self, index: int, position: int) -> Element:
        items = self._subs[index]
        element = items.pop(position)
        del self._sub_ranks[index][position]
        if not items:
            del (self._subs[index], self._sub_ranks[index],
                 self._sub_last[index], self._sub_low[index])
            if not self._subs:
                self._open_sublists([])
        del self._resident[element.flow_id]
        return element

    def _enter_grouped_mode(self) -> None:
        if self._subs is not None:
            self._items = [element for items in self._subs
                           for element in items]
            self._keys = [(element.rank, element.seq)
                          for element in self._items]
            self._subs = None
            self._sub_ranks, self._sub_last, self._sub_low = [], [], []
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
