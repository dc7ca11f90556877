"""The element type stored in PIEO / PIFO ordered lists.

An :class:`Element` corresponds to one entry of the paper's Rank-Sublist
(Fig. 5): a flow id, a programmable *rank*, and a *send_time* that encodes
the eligibility predicate ``current_time >= send_time`` (Section 5.2).

Two extensions from the paper are carried on the element as well:

* ``group`` — the logical-PIEO index used for hierarchical scheduling
  (Section 4.3).  A non-leaf node ``p`` extracts its logical PIEO from the
  shared physical PIEO by extending the eligibility predicate with
  ``p.start <= f.index <= p.end``; ``group`` is that index.
* ``payload`` — an opaque reference for callers (e.g. the flow object), not
  interpreted by the ordered list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional, Tuple, Union

Rank = Union[int, float]
Time = Union[int, float]

#: send_time encoding of a predicate that is always true (Section 5.2:
#: "Predicate that is always true is encoded by assigning send_time to 0").
ALWAYS_ELIGIBLE: Time = 0

#: send_time encoding of a predicate that is always false ("predicate that
#: is always false is encoded by assigning send_time to infinity").
NEVER_ELIGIBLE: Time = math.inf


@dataclass(slots=True, init=False)
class Element:
    """One entry of the ordered list.

    Parameters
    ----------
    flow_id:
        Identifier of the flow (or, in a hierarchy, of the child node) that
        this entry schedules.  At most one element per flow id may be
        resident in an ordered list at a time.
    rank:
        Programmable rank; the list is kept ordered by increasing rank.
    send_time:
        Eligibility encoding; the element is eligible at time ``t`` iff
        ``t >= send_time``.  Use :data:`ALWAYS_ELIGIBLE` /
        :data:`NEVER_ELIGIBLE` for constant predicates.
    group:
        Logical-PIEO index for hierarchical scheduling; ignored by flat
        schedulers.
    payload:
        Opaque user data.
    """

    flow_id: Hashable
    rank: Rank
    send_time: Time = ALWAYS_ELIGIBLE
    group: int = 0
    payload: Any = None

    #: Monotonic enqueue sequence number, assigned by the ordered list at
    #: enqueue time.  Used only to break rank ties in FIFO order
    #: (Section 3.1: "If there are multiple eligible elements with the same
    #: smallest rank value, then the element which was enqueued first is
    #: dequeued").
    seq: int = field(default=-1, compare=False)

    # Hand-written rather than generated: one frame per element (the
    # generated __init__ calls __post_init__), with the same NaN checks.
    def __init__(self, flow_id: Hashable, rank: Rank,
                 send_time: Time = ALWAYS_ELIGIBLE, group: int = 0,
                 payload: Any = None, seq: int = -1) -> None:
        if rank != rank:  # NaN check without importing math here
            raise ValueError("rank must not be NaN")
        if send_time != send_time:
            raise ValueError("send_time must not be NaN")
        self.flow_id = flow_id
        self.rank = rank
        self.send_time = send_time
        self.group = group
        self.payload = payload
        self.seq = seq

    def sort_key(self) -> Tuple[Rank, int]:
        """Total order used by the ordered list: rank, then arrival order."""
        return (self.rank, self.seq)

    def is_eligible(self, now: Time,
                    group_range: Optional[Tuple[int, int]] = None) -> bool:
        """Evaluate the eligibility predicate at time ``now``.

        ``group_range=(lo, hi)`` additionally requires
        ``lo <= self.group <= hi`` — the logical-PIEO extraction predicate
        of Section 4.3.
        """
        if now < self.send_time:
            return False
        if group_range is not None:
            lo, hi = group_range
            if not lo <= self.group <= hi:
                return False
        return True

    def copy(self) -> "Element":
        """Return a shallow copy (payload is shared)."""
        return Element(self.flow_id, self.rank, self.send_time,
                       self.group, self.payload, self.seq)
