"""Shared experiment-harness plumbing: result tables and sharded sweeps.

Every experiment module produces a :class:`Table` whose rows mirror the
series in the corresponding paper figure, plus (where the paper states
numbers) a paper-anchor column, so EXPERIMENTS.md can record
paper-vs-measured directly from benchmark output.

:func:`run_sweep` fans a sweep's points across worker processes
(``--jobs N`` on the CLI).  The determinism contract:

* every sweep-point worker is a **module-level function** (so it can be
  pickled to a pool) taking one spec tuple whose first item is the
  point's index;
* the worker derives *all* process-global state from that index — in
  particular it must call
  :func:`repro.sim.packet.reset_packet_ids` with
  :func:`point_seed` — so a point computes the same result whether it
  runs in the parent (``jobs=1``), in a pool, or in any pool-worker
  interleaving;
* results always come back in point order, regardless of completion
  order.

Under this contract ``jobs=N`` output is byte-identical to ``jobs=1``
(the fig11/fig12 integration tests assert it, including merged JSONL
trace streams).

Passing a :class:`repro.obs.heartbeat.SweepHeartbeat` as ``heartbeat``
adds liveness reporting — points completed, per-point wall time, ETA,
worker health — on stderr and (when the heartbeat carries a tracer) as
``mark`` trace events.  The heartbeat observes only; worker results
stay byte-identical with or without one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.obs.heartbeat import NULL_HEARTBEAT, SweepHeartbeat

#: Packet-id stride between sweep points: point ``i`` draws its packet
#: ids from ``[i * stride, (i+1) * stride)``.  Far above any single
#: point's packet count, so ids never collide across points and every
#: point's ids are independent of execution order.
POINT_ID_STRIDE = 10_000_000


def point_seed(index: int, stride: int = POINT_ID_STRIDE) -> int:
    """First packet id for sweep point ``index`` (see module docstring)."""
    if index < 0:
        raise ValueError("sweep point index must be >= 0")
    return index * stride


def _timed_call(payload):
    """Pool shim wrapping a worker call with its wall time (module
    level so it pickles; used only when a heartbeat is attached)."""
    worker, spec = payload
    start = time.perf_counter()
    return worker(spec), time.perf_counter() - start


def run_sweep(worker: Callable[[Any], Any], specs: Sequence[Any],
              jobs: int = 1,
              heartbeat: Optional[SweepHeartbeat] = None) -> List[Any]:
    """Run ``worker(spec)`` for every spec, optionally in a process pool.

    ``jobs <= 1`` runs sequentially in-process (no pool, no pickling);
    ``jobs > 1`` fans the points over ``min(jobs, len(specs))``
    processes.  Either way the returned list is in spec order.
    ``heartbeat`` (a :class:`repro.obs.heartbeat.SweepHeartbeat`) reports
    per-point completion, wall time, and ETA as the sweep progresses.
    """
    if jobs <= 1 or len(specs) <= 1:
        pulse = heartbeat if heartbeat is not None else NULL_HEARTBEAT
        pulse.begin(len(specs), jobs=1)
        outcomes = []
        for index, spec in enumerate(specs):
            with pulse.point(index):
                outcomes.append(worker(spec))
        pulse.finish()
        return outcomes
    import multiprocessing

    with multiprocessing.Pool(min(jobs, len(specs))) as pool:
        if heartbeat is None:
            return pool.map(worker, specs, chunksize=1)
        heartbeat.begin(len(specs), jobs=min(jobs, len(specs)))
        payloads = [(worker, spec) for spec in specs]
        outcomes = []
        try:
            for result, wall_s in pool.imap(_timed_call, payloads,
                                            chunksize=1):
                heartbeat.point_done(len(outcomes), wall_s)
                outcomes.append(result)
        except Exception as error:
            heartbeat.point_failed(len(outcomes), error)
            raise
        heartbeat.finish()
        return outcomes


@dataclass
class Table:
    """A printable experiment result table."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells, expected "
                f"{len(self.headers)}")
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def to_text(self) -> str:
        cells = [[_fmt(value) for value in row] for row in self.rows]
        widths = [len(header) for header in self.headers]
        for row in cells:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title]
        lines.append("  ".join(
            header.ljust(widths[index])
            for index, header in enumerate(self.headers)))
        lines.append("  ".join("-" * width for width in widths))
        for row in cells:
            lines.append("  ".join(
                cell.ljust(widths[index])
                for index, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def column(self, header: str) -> List[Any]:
        index = list(self.headers).index(header)
        return [row[index] for row in self.rows]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (value != 0 and abs(value) < 0.001):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
