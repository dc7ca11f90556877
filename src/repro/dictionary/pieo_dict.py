"""PIEO as an abstract dictionary data type (Section 8).

"PIEO primitive can be viewed as an abstract dictionary data type, which
maintains a collection of (key, value) pairs, indexed by key, and allows
operations such as search, insert, delete and update ... it can also very
efficiently support certain other key dictionary operations considered
traditionally challenging, such as filtering a set of keys within a
range, as PIEO implementation described in Section 5 can be naturally
extended to support predicates of the form a <= key <= b."

This module realizes that reading: keys map to ranks (so the ordered list
keeps keys sorted), and range filtering uses the dequeue-side range
predicate.  All operations are O(1)-cycle on the hardware design
(4 clock cycles each, Section 5.2); ``pop_range`` additionally
demonstrates the a <= key <= b filter.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, List, Optional, Tuple, Union

from repro.core.backends import DEFAULT_BACKEND, make_list
from repro.core.element import ALWAYS_ELIGIBLE, Element
from repro.core.interfaces import PieoList
from repro.errors import CapacityError


class PieoDict:
    """An ordered mapping backed by a PIEO ordered list.

    Keys must be numeric (they become ranks); values are arbitrary.
    Iteration yields keys in sorted order — for free, since the PIEO
    ordered list *is* the sort.

    Parameters
    ----------
    backend:
        Either a backend *name* resolved through
        :mod:`repro.core.backends` (``"reference"``, ``"hardware"``,
        ...) or an explicit :class:`PieoList` instance to
        store entries in.  Pass ``"hardware"`` to run the dictionary on
        the cycle-accurate hardware model.
    """

    def __init__(self,
                 backend: Union[str, PieoList, None] = None) -> None:
        if backend is None:
            backend = DEFAULT_BACKEND
        self._list = (make_list(backend) if isinstance(backend, str)
                      else backend)

    # -- dict protocol ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._list)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._list

    def __iter__(self) -> Iterator[float]:
        return (element.rank for element in self._list.snapshot())

    def keys(self) -> List[float]:
        return list(self)

    def items(self) -> List[Tuple[float, Any]]:
        return [(element.rank, element.payload)
                for element in self._list.snapshot()]

    def values(self) -> List[Any]:
        return [element.payload for element in self._list.snapshot()]

    # -- operations (all O(1) hardware time) ---------------------------------
    def insert(self, key: float, value: Any = None) -> None:
        """Insert a (key, value) pair; replaces an existing key."""
        self._list.dequeue_flow(key)
        try:
            self._list.enqueue(Element(flow_id=key, rank=key,
                                       send_time=ALWAYS_ELIGIBLE,
                                       payload=value))
        except CapacityError:
            raise
    __setitem__ = insert

    def search(self, key: float, default: Any = None) -> Any:
        """Return the value for ``key`` without removing it."""
        for element in self._list.snapshot():
            if element.flow_id == key:
                return element.payload
        return default
    get = search

    def __getitem__(self, key: float) -> Any:
        sentinel = object()
        value = self.search(key, sentinel)
        if value is sentinel:
            raise KeyError(key)
        return value

    def delete(self, key: float) -> Optional[Any]:
        """Remove ``key``; returns its value (None if absent), matching
        the primitive's NULL semantics."""
        element = self._list.dequeue_flow(key)
        return element.payload if element is not None else None

    def __delitem__(self, key: float) -> None:
        if self._list.dequeue_flow(key) is None:
            raise KeyError(key)

    def update(self, key: float, value: Any) -> bool:
        """Update an existing key in place (dequeue(f) + enqueue, the
        Section 4.4 asynchronous-update idiom).  Returns False if the key
        is absent."""
        element = self._list.dequeue_flow(key)
        if element is None:
            return False
        element.payload = value
        self._list.enqueue(element)
        return True

    # -- ordered / range operations -----------------------------------------
    def min_key(self) -> Optional[float]:
        element = self._list.peek(now=0)
        return element.rank if element is not None else None

    def pop_min(self) -> Optional[Tuple[float, Any]]:
        element = self._list.dequeue(now=0)
        if element is None:
            return None
        return element.rank, element.payload

    def range_keys(self, low: float, high: float) -> List[float]:
        """All keys with low <= key <= high, in sorted order."""
        return [element.rank for element in self._list.snapshot()
                if low <= element.rank <= high]

    def pop_range(self, low: float, high: float,
                  limit: Optional[int] = None) -> List[Tuple[float, Any]]:
        """Extract up to ``limit`` smallest keys in [low, high] — the
        Section 8 range-filter predicate, one extraction per primitive
        operation."""
        extracted: List[Tuple[float, Any]] = []
        while limit is None or len(extracted) < limit:
            candidates = self.range_keys(low, high)
            if not candidates:
                break
            element = self._list.dequeue_flow(candidates[0])
            extracted.append((element.rank, element.payload))
        return extracted
