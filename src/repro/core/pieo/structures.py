"""Storage structures of the PIEO hardware design (Section 5.2, Fig. 5).

Two structures are modelled:

* :class:`Sublist` — one SRAM-resident sublist, holding a *Rank-Sublist*
  (elements ordered by increasing rank, FIFO within equal ranks) and an
  *Eligibility-Sublist* (a sorted copy of the elements' ``send_time``
  values).  A sublist is striped across O(sqrt(N)) dual-port SRAM blocks in
  the real hardware so the whole sublist is read or written in one cycle.

* :class:`PointerEntry` / :class:`OrderedSublistArray` — the flip-flop
  resident pointer array (*Ordered-Sublist-Array*), one entry per sublist,
  ordered by increasing ``smallest_rank`` and dynamically partitioned into
  a non-empty prefix and an empty suffix.

These classes implement *state*; the per-cycle control logic lives in
:class:`repro.core.pieo.hardware_list.PieoHardwareList`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.element import Element, Time
from repro.errors import InvariantViolation


class Sublist:
    """One sublist: a bounded Rank-Sublist plus its Eligibility-Sublist."""

    __slots__ = ("sublist_id", "size", "entries", "eligibility")

    def __init__(self, sublist_id: int, size: int) -> None:
        if size < 1:
            raise ValueError("sublist size must be >= 1")
        self.sublist_id = sublist_id
        self.size = size
        #: Rank-Sublist: elements in increasing (rank, arrival) order.
        self.entries: List[Element] = []
        #: Eligibility-Sublist: send_time values in increasing order.
        self.eligibility: List[Time] = []

    # -- capacity ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.size

    @property
    def is_empty(self) -> bool:
        return not self.entries

    # -- summaries mirrored into the pointer array ----------------------
    @property
    def smallest_rank(self) -> float:
        return self.entries[0].rank if self.entries else math.inf

    @property
    def smallest_send_time(self) -> Time:
        return self.eligibility[0] if self.eligibility else math.inf

    # -- positional helpers (positions computed by the control logic) ---
    def rank_insert_position(self, rank: float) -> int:
        """Priority-encoder result of the parallel compare
        ``entries[i].rank > rank``: the first strictly-larger index.

        Equal ranks sort *before* the new element, giving the FIFO
        tie-break of Section 3.1.
        """
        for index, entry in enumerate(self.entries):
            if entry.rank > rank:
                return index
        return len(self.entries)

    def insert_at(self, position: int, element: Element) -> None:
        if self.is_full:
            raise InvariantViolation(
                f"insert into full sublist {self.sublist_id}")
        self.entries.insert(position, element)
        bisect.insort(self.eligibility, element.send_time)

    def remove_at(self, position: int) -> Element:
        element = self.entries.pop(position)
        self._eligibility_remove(element.send_time)
        return element

    def pop_tail(self) -> Element:
        return self.remove_at(len(self.entries) - 1)

    def pop_head(self) -> Element:
        return self.remove_at(0)

    def push_head(self, element: Element) -> None:
        self.insert_at(0, element)

    def push_tail(self, element: Element) -> None:
        self.insert_at(len(self.entries), element)

    # -- predicate evaluation -------------------------------------------
    def first_eligible_index(self, now: Time,
                             group_range: Optional[Tuple[int, int]] = None,
                             ) -> Optional[int]:
        """Priority-encoder result over the Rank-Sublist with predicate
        ``now >= entries[i].send_time`` (plus the optional group filter)."""
        for index, entry in enumerate(self.entries):
            if entry.is_eligible(now, group_range):
                return index
        return None

    def index_of_flow(self, flow_id) -> Optional[int]:
        """Priority-encoder result of ``entries[i].flow_id == flow_id``."""
        for index, entry in enumerate(self.entries):
            if entry.flow_id == flow_id:
                return index
        return None

    # -- self checks -----------------------------------------------------
    def check(self) -> None:
        """Verify internal ordering invariants (test hook)."""
        for left, right in zip(self.entries, self.entries[1:]):
            if left.sort_key() > right.sort_key():
                raise InvariantViolation(
                    f"sublist {self.sublist_id} rank order broken")
        for left, right in zip(self.eligibility, self.eligibility[1:]):
            if left > right:
                raise InvariantViolation(
                    f"sublist {self.sublist_id} eligibility order broken")
        expected = sorted(entry.send_time for entry in self.entries)
        if expected != list(self.eligibility):
            raise InvariantViolation(
                f"sublist {self.sublist_id} eligibility desynchronised")

    def _eligibility_remove(self, send_time: Time) -> None:
        position = bisect.bisect_left(self.eligibility, send_time)
        if (position >= len(self.eligibility)
                or self.eligibility[position] != send_time):
            raise InvariantViolation(
                f"send_time {send_time} missing from eligibility sublist "
                f"{self.sublist_id}")
        self.eligibility.pop(position)


@dataclass
class PointerEntry:
    """One flip-flop entry of the Ordered-Sublist-Array (Section 5.2)."""

    sublist_id: int
    smallest_rank: float = math.inf
    smallest_send_time: Time = math.inf
    num: int = 0

    @property
    def is_empty(self) -> bool:
        return self.num == 0

    def refresh(self, sublist: Sublist) -> None:
        """Re-latch the summary fields from the sublist after a write-back
        (cycle 4 of every primitive operation)."""
        self.smallest_rank = sublist.smallest_rank
        self.smallest_send_time = sublist.smallest_send_time
        self.num = len(sublist)


class OrderedSublistArray:
    """The flip-flop pointer array over all sublists.

    Entries are ordered by increasing ``smallest_rank``; all empty sublists
    sit in a suffix partition (Fig. 5: "the section on the left points to
    sublists which are not empty, while the section on the right points to
    all the currently empty sublists").
    """

    def __init__(self, num_sublists: int) -> None:
        self.entries: List[PointerEntry] = [
            PointerEntry(sublist_id=i) for i in range(num_sublists)
        ]
        #: Number of non-empty sublists == start of the empty partition.
        self.num_nonempty = 0

    def __len__(self) -> int:
        return len(self.entries)

    # -- queries ---------------------------------------------------------
    def nonempty_entries(self) -> List[PointerEntry]:
        return self.entries[:self.num_nonempty]

    def position_of_sublist(self, sublist_id: int) -> int:
        """Parallel compare on ``sublist_id`` + priority encode."""
        for position, entry in enumerate(self.entries):
            if entry.sublist_id == sublist_id:
                return position
        raise InvariantViolation(f"sublist {sublist_id} not in pointer array")

    def first_empty_position(self) -> Optional[int]:
        if self.num_nonempty >= len(self.entries):
            return None
        return self.num_nonempty

    # -- re-arrangements (single-cycle shifts in hardware) ----------------
    def move_entry(self, source: int, destination: int) -> None:
        """Shift the entry at ``source`` to ``destination``, sliding the
        intermediate entries by one (hardware does this with a parallel
        shift of the flip-flop array)."""
        entry = self.entries.pop(source)
        self.entries.insert(destination, entry)

    def activate_at(self, position: int, destination: int) -> None:
        """Bring an empty sublist into the non-empty partition at an
        arbitrary ``destination`` (used when a fresh sublist is shifted to
        the immediate right of a full sublist during enqueue)."""
        if destination > self.num_nonempty:
            raise InvariantViolation("activation beyond nonempty prefix")
        self.move_entry(position, destination)
        self.num_nonempty += 1

    def deactivate(self, position: int) -> None:
        """Move a now-empty sublist to the head of the empty partition."""
        self.num_nonempty -= 1
        self.move_entry(position, self.num_nonempty)

    # -- self checks -------------------------------------------------------
    def check(self, sublists: List[Sublist]) -> None:
        """Verify pointer-array invariants against the SRAM contents."""
        seen = sorted(entry.sublist_id for entry in self.entries)
        if seen != list(range(len(self.entries))):
            raise InvariantViolation("pointer array lost a sublist id")
        for position, entry in enumerate(self.entries):
            sublist = sublists[entry.sublist_id]
            if entry.num != len(sublist):
                raise InvariantViolation(
                    f"pointer num stale at position {position}")
            if entry.num and entry.smallest_rank != sublist.smallest_rank:
                raise InvariantViolation(
                    f"pointer smallest_rank stale at position {position}")
            if (entry.num and
                    entry.smallest_send_time != sublist.smallest_send_time):
                raise InvariantViolation(
                    f"pointer smallest_send_time stale at {position}")
            if position < self.num_nonempty and entry.is_empty:
                raise InvariantViolation(
                    f"empty sublist inside non-empty prefix at {position}")
            if position >= self.num_nonempty and not entry.is_empty:
                raise InvariantViolation(
                    f"non-empty sublist inside empty suffix at {position}")
        prefix = self.nonempty_entries()
        for left, right in zip(prefix, prefix[1:]):
            if left.smallest_rank > right.smallest_rank:
                raise InvariantViolation("pointer array rank order broken")
