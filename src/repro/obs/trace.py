"""Structured event tracing with sim-time stamps.

A :class:`Tracer` collects typed :class:`TraceEvent` records from every
instrumented layer — packet arrivals and departures from the transmit
engine, ordered-list enqueues/dequeues from the scheduling framework,
the lifecycle of the engine's retry timer, link busy/idle
transitions — and can either retain them (unbounded, or in a
bounded ring buffer) or stream them to a JSONL sink as they happen.

The event vocabulary is fixed (:data:`EVENT_KINDS`); each event is one
``kind`` plus a small dict of fields, stamped with the *simulated* time
it describes.  Wall-clock latencies enter the stream only through
``span`` events (see :class:`repro.obs.scope.Span`).

Analysis code consumes events in-process (:meth:`Tracer.events_of`) or
offline from the JSONL export, one JSON object per line::

    {"t": 0.0003072, "kind": "departure", "flow_id": "n6.f2", ...}
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import (Dict, Hashable, IO, Iterable, Iterator, List,
                    Optional, Sequence, Union)

from repro.obs.scope import NULL_TRACER, Span

#: The closed vocabulary of trace event kinds.
EVENT_KINDS = (
    "arrival",       # packet entered the scheduler
    "enqueue",       # flow element inserted into an ordered list
    "dequeue",       # flow element extracted from an ordered list
    "departure",     # packet handed to the wire
    "drop",          # packet discarded (admission / policy)
    "timer_arm",     # a timer was armed
    "timer_fire",    # an armed timer fired
    "timer_cancel",  # an armed timer was cancelled before firing
    "kick",          # transmit engine requested a scheduling attempt
    "link_busy",     # link started serializing a packet
    "link_idle",     # link finished its current batch
    "mark",          # free-form annotation (run/sweep boundaries)
    "span",          # wall-clock latency of an instrumented region
)


#: Field names every event record already carries, and what they hold.
_RESERVED_FIELDS = {"t": "sim time", "kind": "kind"}


def _json_safe(value):
    """JSON cannot express non-finite floats; encode them as strings so
    every exported line parses under strict decoders."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf' / '-inf' / 'nan'
    return value


def _unserializable(value):
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


def _make_encoder(allow_nan: bool):
    """The stdlib C encoder that ``json.dumps(record, separators=(",",
    ":"))`` builds afresh on every call, built once.  Call it as
    ``encoder(record, 0)``; it returns the chunks of the line.  It skips
    the circular-reference check: event fields are scalars and flat
    sequences."""
    return c_make_encoder(None, _unserializable, encode_basestring_ascii,
                          None, ":", ",", False, False, allow_nan)


#: Encodes a record holding only finite floats; raises ValueError on any
#: non-finite one, which sends the record down :func:`_non_finite_json`.
_STRICT = _make_encoder(allow_nan=False)
#: Encodes the :func:`_json_safe` form of a record; non-finite floats
#: nested in sequences come out as ``Infinity``/``NaN``, as they always
#: have.
_LENIENT = _make_encoder(allow_nan=True)


def _non_finite_json(record: Dict[str, object]) -> str:
    """The rare encoding path: a record holding a non-finite float."""
    safe = {}
    for key, value in record.items():
        safe[key] = _json_safe(value)
    return "".join(_LENIENT(safe, 0))


#: Entries either text memo of a streaming tracer holds before it is
#: cleared.  Sim times, deadlines and ranks repeat across nearby events:
#: 90-96% of the floats streamed by the hier, incast and fct runs hit a
#: memo of this size.
_MEMO_BOUND = 1024

#: The ``,"kind":"<kind>"`` text of every event kind.
_KIND_TEXTS = {kind: f',"kind":"{kind}"' for kind in EVENT_KINDS}


def _record_json(record: Dict[str, object]) -> str:
    """One event record as a compact JSON line (without the newline):
    byte for byte what ``json.dumps`` of its :func:`_json_safe` form
    with ``separators=(",", ":")`` gives."""
    try:
        return "".join(_STRICT(record, 0))
    except ValueError:
        return _non_finite_json(record)


@dataclass
class TraceEvent:
    """One structured event: a kind, a sim-time stamp, and fields."""

    time: float
    kind: str
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {"t": _json_safe(self.time),
                                     "kind": self.kind}
        for key, value in self.fields.items():
            record[key] = _json_safe(value)
        return record

    def to_json(self) -> str:
        return _record_json({"t": self.time, "kind": self.kind,
                             **self.fields})

    def get(self, key: str, default=None):
        return self.fields.get(key, default)


class _TypedEmitters:
    """The typed event vocabulary, expressed in terms of ``self._record``.

    Shared by :class:`Tracer` (which stores/streams events) and
    :class:`LabelledTracer` (which stamps constant fields and
    delegates), so both expose the identical instrumented-layer surface.
    Each emitter builds its event's field dict once, named fields first
    and extra ones after, and hands it to ``_record(time, kind,
    fields)``, which owns the dict from then on.
    """

    def arrival(self, time, flow_id: Hashable, size_bytes: int,
                packet_id=None, **fields) -> None:
        self._record(time, "arrival", {
            "flow_id": flow_id, "size_bytes": size_bytes,
            "packet_id": packet_id, **fields})

    def enqueue(self, time, flow_id: Hashable, rank, send_time,
                **fields) -> None:
        self._record(time, "enqueue", {
            "flow_id": flow_id, "rank": rank, "send_time": send_time,
            **fields})

    def dequeue(self, time, flow_id: Hashable, rank=None,
                **fields) -> None:
        self._record(time, "dequeue", {
            "flow_id": flow_id, "rank": rank, **fields})

    def departure(self, time, flow_id: Hashable, size_bytes: int,
                  packet_id=None, finish=None, **fields) -> None:
        self._record(time, "departure", {
            "flow_id": flow_id, "size_bytes": size_bytes,
            "packet_id": packet_id, "finish": finish, **fields})

    def drop(self, time, flow_id: Hashable, reason: str = "",
             **fields) -> None:
        self._record(time, "drop", {
            "flow_id": flow_id, "reason": reason, **fields})

    def timer_arm(self, time, timer_id, deadline, *, scope: str,
                  **fields) -> None:
        self._record(time, "timer_arm", {
            "id": timer_id, "deadline": deadline, "scope": scope,
            **fields})

    def timer_fire(self, time, timer_id, *, scope: str,
                   **fields) -> None:
        self._record(time, "timer_fire", {
            "id": timer_id, "scope": scope, **fields})

    def timer_cancel(self, time, timer_id, *, scope: str,
                     **fields) -> None:
        self._record(time, "timer_cancel", {
            "id": timer_id, "scope": scope, **fields})

    def kick(self, time, at=None, **fields) -> None:
        self._record(time, "kick", {"at": at, **fields})

    def link_busy(self, time, until=None, flow_id=None,
                  **fields) -> None:
        self._record(time, "link_busy", {
            "until": until, "flow_id": flow_id, **fields})

    def link_idle(self, time, **fields) -> None:
        self._record(time, "link_idle", fields)

    def mark(self, time, label: str, **fields) -> None:
        """Free-form annotation, e.g. a sweep-point boundary."""
        self._record(time, "mark", {"label": label, **fields})

    def emit(self, time: float, kind: str, **fields) -> None:
        """Record one event of any ``kind`` from :data:`EVENT_KINDS`;
        no field may be named ``t`` or ``kind``.

        The public entry to the line builder the typed emitters above
        hand their field dicts to: the keyword arguments are the one
        dict of the event, and a streamed event costs two Python frames
        (this one and ``_record``), as through a typed emitter.
        """
        self._record(time, kind, fields)

    def span(self, name: str, sim_time: float = 0.0) -> Span:
        """``with tracer.span("schedule"):`` — wall-clock a region and
        emit its latency as a ``span`` event."""
        return Span(self, name, sim_time)


class Tracer(_TypedEmitters):
    """Collects and/or streams :class:`TraceEvent` records.

    Parameters
    ----------
    capacity:
        ``None`` retains every event (analysis mode).  An integer ``n``
        keeps only the most recent ``n`` events in a ring buffer
        (long-running mode; evictions are counted in :attr:`dropped`).
        ``0`` retains nothing — useful together with ``sink``.
    sink:
        Optional writable text stream; every event is additionally
        written to it immediately as one JSON line (JSONL export).
    """

    def __init__(self, capacity: Optional[int] = None,
                 sink: Optional[IO[str]] = None) -> None:
        if capacity is None:
            self._events: Union[List[TraceEvent],
                                deque] = []
        else:
            if capacity < 0:
                raise ValueError("capacity must be >= 0 or None")
            self._events = deque(maxlen=capacity)
        #: The ring's size (``None``: unbounded); an event emitted while
        #: ``len(events)`` equals it counts as dropped.
        self._capacity = capacity
        #: Whether events are materialized as :class:`TraceEvent` at all.
        self._retain = capacity is None or capacity > 0
        self._sink = sink
        self._owns_sink = False
        #: Events evicted by the ring buffer.
        self.dropped = 0
        #: Emission count per event kind.
        self.counts: Dict[str, int] = {}
        self.enabled = True
        #: JSON texts of streamed ``float``/``str`` values, and the
        #: ``,"name":`` texts of field names (see :meth:`_record`).
        self._texts: Dict[object, str] = {}
        self._names: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def open_jsonl(cls, path, capacity: Optional[int] = 0) -> "Tracer":
        """A tracer streaming every event to ``path`` as JSONL.

        By default nothing is retained in memory (``capacity=0``) so the
        tracer is safe for arbitrarily long runs; :meth:`close` flushes
        and closes the file.
        """
        tracer = cls(capacity=capacity, sink=open(path, "w"))
        tracer._owns_sink = True
        return tracer

    def close(self) -> None:
        if self._sink is not None:
            self._sink.flush()
            if self._owns_sink:
                self._sink.close()
            self._sink = None

    # ------------------------------------------------------------------
    # Core emission
    # ------------------------------------------------------------------
    def _record(self, time, kind: str,
                fields: Dict[str, object]) -> None:
        """Record one event from its field dict, which it keeps.

        One frame per event: the kind is validated the first time it is
        counted, and a :class:`TraceEvent` is built only when events are
        retained.  A streamed line is built from the texts of its
        scalars, one f-string per field: an exact ``float`` or ``str``
        is looked up in the tracer's memo of JSON texts (filled on a
        miss, cleared at :data:`_MEMO_BOUND` entries), an exact
        ``int``, a ``bool`` or ``None`` is rendered inline, and the
        ``,"name":`` text of a field name comes from a second memo.
        Any other value -- a non-finite float, a subclass, a container
        -- sends the whole record to the prebuilt C encoder (see
        :func:`_record_json`, inlined here).  Either way the line is
        byte for byte what ``json.dumps`` gives.
        """
        if not self.enabled:
            return
        counts = self.counts
        count = counts.get(kind)
        if count is None:
            if kind not in EVENT_KINDS:
                raise ValueError(
                    f"unknown trace event kind {kind!r}; "
                    f"expected one of {', '.join(EVENT_KINDS)}")
            count = 0
        if "t" in fields or "kind" in fields:
            name = "t" if "t" in fields else "kind"
            raise ValueError(f"trace field name {name!r} is reserved for "
                             f"the event's {_RESERVED_FIELDS[name]}")
        counts[kind] = count + 1
        if self._retain:
            events = self._events
            if len(events) == self._capacity:
                self.dropped += 1
            events.append(TraceEvent(time, kind, fields))
        sink = self._sink
        if sink is None:
            return
        # The memos are keyed by value, and a dict does not tell 1, 1.0
        # and True apart, nor 0.0 and -0.0: only exact floats and strs
        # are looked up, and zeros are never stored.  NaN never equals
        # a key, and no non-finite float is stored.
        texts = self._texts
        names = self._names
        line = _KIND_TEXTS[kind]
        for key, value in fields.items():
            cls = type(value)
            if cls is float or cls is str:
                text = texts.get(value)
                if text is None:
                    if cls is str:
                        text = encode_basestring_ascii(value)
                    elif math.isfinite(value):
                        text = repr(value)
                    else:
                        break
                    if value:
                        if len(texts) >= _MEMO_BOUND:
                            texts.clear()
                        texts[value] = text
            elif cls is int:
                text = repr(value)
            elif cls is bool:
                text = "true" if value else "false"
            elif value is None:
                text = "null"
            else:
                break
            name = names.get(key)
            if name is None:
                if len(names) >= _MEMO_BOUND:
                    names.clear()
                name = names[key] = f",{encode_basestring_ascii(key)}:"
            line = f"{line}{name}{text}"
        else:
            # The sim time, with the same memo; any other time takes the
            # C encoder below.
            if type(time) is float:
                text = texts.get(time)
                if text is None and math.isfinite(time):
                    text = repr(time)
                    if time:
                        if len(texts) >= _MEMO_BOUND:
                            texts.clear()
                        texts[time] = text
                if text is not None:
                    sink.write(f'{{"t":{text}{line}}}\n')
                    return
        record = {"t": time, "kind": kind, **fields}
        try:
            line = "".join(_STRICT(record, 0))
        except ValueError:
            line = _non_finite_json(record)
        sink.write(line + "\n")

    # ------------------------------------------------------------------
    # Access and export
    # ------------------------------------------------------------------
    @property
    def emitted(self) -> int:
        """Total events emitted (including ring evictions)."""
        return sum(self.counts.values())

    @property
    def events(self) -> Sequence[TraceEvent]:
        return self._events

    def events_of(self, *kinds: str) -> List[TraceEvent]:
        """Retained events restricted to the given kinds, in order."""
        wanted = set(kinds)
        return [event for event in self._events if event.kind in wanted]

    def iter_jsonl(self) -> Iterator[str]:
        for event in self._events:
            yield event.to_json()

    def write_jsonl(self, path) -> int:
        """Write every retained event to ``path``; returns the count."""
        count = 0
        with open(path, "w") as handle:
            for line in self.iter_jsonl():
                handle.write(line)
                handle.write("\n")
                count += 1
        return count

    def absorb_jsonl(self, lines: Iterable[str]) -> int:
        """Re-emit serialized trace lines (e.g. from a sharded sweep
        worker) into this tracer, preserving order; returns the count.

        Each parsed line is handed to the line builder :meth:`_record`,
        so retention, per-kind counts, and the sink observe absorbed events
        exactly as if they had been emitted locally.  Serialization
        round-trips byte-exactly: float formatting is shortest-repr
        stable, and the non-finite string encodings of
        :func:`_json_safe` are revived with the :func:`read_jsonl`
        rules before re-encoding.  A line that is not a JSON object
        with a numeric ``t`` and a known ``kind`` raises
        :class:`ValueError` naming its line number.
        """
        count = 0
        for number, line in enumerate(lines, start=1):
            record = _parse_line(line, f"line {number}")
            if record is None:
                continue
            time = record.pop("t", None)
            kind = record.pop("kind", None)
            if type(time) not in (int, float) or kind not in EVENT_KINDS:
                raise ValueError(
                    f"line {number}: trace line needs a numeric 't' "
                    "and a known 'kind'")
            self._record(time, kind, record)
            count += 1
        return count


class LabelledTracer(_TypedEmitters):
    """View of a tracer that stamps constant fields on every event.

    ``LabelledTracer(tracer, port="p0")`` makes every emitted event
    carry ``port: "p0"`` — the per-port instrumentation hook: each
    :class:`~repro.sim.port.Port` hands its components a labelled view
    of the dataplane's single tracer, and the analyzer/export layers
    split streams back out by the ``port`` field.  Explicit fields win
    over labels on collision; labelled views nest (inner labels win).

    This is a *view*: storage, retention, counts, and the JSONL sink all
    live on the base tracer.  Never wrap the null tracer — use
    :func:`labelled` which returns null/None bases unchanged, keeping
    the ``tracer is NULL_TRACER`` fast-path identity checks meaningful.
    """

    __slots__ = ("base", "labels", "_root", "_stamp")

    def __init__(self, base, **labels) -> None:
        _check_labels(labels)
        self.base = base
        self.labels = labels
        # A nested view emits straight into the innermost base with the
        # labels of every level merged once, here: this view's labels
        # first and winning, then the missing ones of the views below.
        if isinstance(base, LabelledTracer):
            stamp = {**labels, **base._stamp}
            stamp.update(labels)
            self._root = base._root
        else:
            stamp = dict(labels)
            self._root = base
        self._stamp = stamp

    def _record(self, time, kind: str,
                fields: Dict[str, object]) -> None:
        # Explicit fields keep their place and value; the labels they
        # lack follow in label order.
        stamped = {**fields, **self._stamp}
        stamped.update(fields)
        self._root._record(time, kind, stamped)

    @property
    def enabled(self) -> bool:
        return self.base.enabled

    def __getattr__(self, name):
        # Everything that is not emission (events, counts, close, ...)
        # belongs to the base tracer.
        return getattr(self.base, name)


def labelled(tracer, **labels):
    """A view of ``tracer`` stamping ``labels`` on every event.

    Returns ``tracer`` unchanged when it is ``None``, the shared null
    tracer, or no labels were given — so call sites can label
    unconditionally without defeating the identity-checked
    ``is NULL_TRACER`` fast paths downstream.  Reserved label names
    (:data:`_RESERVED_FIELDS`) raise :class:`ValueError` either way.
    """
    _check_labels(labels)
    if tracer is None or tracer is NULL_TRACER or not labels:
        return tracer
    return LabelledTracer(tracer, **labels)


def _check_labels(labels: Dict[str, object]) -> None:
    reserved = [name for name in _RESERVED_FIELDS if name in labels]
    if reserved:
        raise ValueError(f"label name(s) {', '.join(reserved)} are "
                         "reserved for the event's time and kind")


#: Fields whose non-finite floats are string-encoded by
#: :func:`_json_safe` on export and revived back to floats by
#: :func:`read_jsonl`.  An allowlist, so a free-form string field that
#: legitimately holds the text ``"inf"`` is never corrupted.
NUMERIC_FIELDS = frozenset((
    "t", "rank", "send_time", "deadline", "finish", "until", "at",
    "eligible_at", "arrival_t", "wall_us",
))

_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _revive(record: Dict[str, object]) -> Dict[str, object]:
    """Undo the :func:`_json_safe` string encoding of non-finite floats
    on the known numeric fields, so ``read_jsonl`` round-trips
    :meth:`Tracer.write_jsonl` exactly."""
    for key, value in record.items():
        if (key in NUMERIC_FIELDS and isinstance(value, str)
                and value in _NON_FINITE):
            record[key] = _NON_FINITE[value]
    return record


def read_jsonl(path) -> List[Dict[str, object]]:
    """Parse a JSONL trace file back into a list of event dicts.

    Non-finite floats that :meth:`Tracer.write_jsonl` string-encoded
    (``inf`` ranks, ``nan`` deadlines, ...) are revived to floats; a
    malformed line raises :class:`ValueError` naming its line number.
    """
    records = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            record = _parse_line(line, f"{path}:{number}")
            if record is not None:
                records.append(record)
    return records


def _parse_line(line: str, where: str) -> Optional[Dict[str, object]]:
    """One JSONL trace line as a revived event dict, ``None`` for a
    blank line; ``where`` prefixes the :class:`ValueError` a malformed
    line raises."""
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValueError(
            f"{where}: malformed trace line ({error.msg})") from error
    if not isinstance(record, dict):
        raise ValueError(f"{where}: trace line is not a JSON object")
    return _revive(record)
