"""Pipelining analysis for the PIEO datapath (Section 6.2).

The paper's prototype is non-pipelined: one primitive operation per 4
cycles.  Section 6.2 analyses what pipelining could add:

* a *fully* pipelined design (one op per cycle) is impossible, because
  cycles 2 and 4 of every operation each consume **both** ports of the
  dual-port SRAM (two sublists read / written), so the memory stages of
  different operations can never overlap;
* "by carefully scheduling the primitive operations, one can still
  achieve some degree of pipelining" — the compute stages (cycles 1 and
  3: pointer-array compare/encode and sublist compare/encode) use
  disjoint logic from the memory stages, so operation *i+1* may occupy
  a compute stage while operation *i* occupies a memory stage.

This module models exactly that structural-hazard analysis.  Each
operation is the 4-stage sequence ``[COMPUTE, MEMORY, COMPUTE, MEMORY]``
and a new operation may issue at the earliest cycle such that no two
operations occupy a MEMORY stage in the same cycle (the compute stages
use distinct hardware units per stage, so they do not conflict under
the alternating schedule).  The result: a steady-state issue interval
of **2 cycles** — a 2x scheduling-rate improvement over the prototype,
but still half of PIFO's fully-pipelined 1 op/cycle, matching the
qualitative trade-off of Section 6.2.

The model captures the *structural* hazard only; data hazards between
back-to-back operations (op i+1's cycle-1 compare needs the pointer
array op i updates in its cycle 4) are assumed resolved by forwarding,
as is standard — this is the optimistic end of the paper's "some degree
of pipelining".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.pieo.hardware_list import CYCLES_PER_OP

#: Stage kinds of one PIEO primitive operation, in order (Section 5.2).
COMPUTE = "compute"
MEMORY = "memory"
OP_STAGES: Tuple[str, ...] = (COMPUTE, MEMORY, COMPUTE, MEMORY)


def earliest_issue(previous_issues: Sequence[int]) -> int:
    """Earliest cycle a new op may issue after ops issued at
    ``previous_issues`` without a memory-port conflict.

    Memory stages of an op issued at cycle ``t`` occupy cycles ``t+1``
    and ``t+3`` (0-indexed stages 1 and 3).
    """
    candidate = (previous_issues[-1] + 1) if previous_issues else 0
    while True:
        new_memory = {candidate + 1, candidate + 3}
        conflict = False
        for issue in previous_issues:
            if new_memory & {issue + 1, issue + 3}:
                conflict = True
                break
        if not conflict:
            return candidate
        candidate += 1


def pipelined_schedule(num_ops: int) -> List[int]:
    """Issue cycles for ``num_ops`` back-to-back operations under the
    memory-port constraint (greedy earliest-issue)."""
    if num_ops < 0:
        raise ValueError("num_ops must be non-negative")
    issues: List[int] = []
    for _ in range(num_ops):
        issues.append(earliest_issue(issues))
    return issues


def pipelined_total_cycles(num_ops: int) -> int:
    """Cycles to retire ``num_ops`` ops on the partially pipelined
    datapath (last issue + depth)."""
    if num_ops == 0:
        return 0
    return pipelined_schedule(num_ops)[-1] + CYCLES_PER_OP


def nonpipelined_total_cycles(num_ops: int) -> int:
    """The prototype's serial execution."""
    return num_ops * CYCLES_PER_OP


@dataclass(frozen=True)
class PipelineReport:
    """Steady-state throughput comparison for one design point."""

    num_ops: int
    nonpipelined_cycles: int
    pipelined_cycles: int
    speedup: float
    issue_interval: float


def pipeline_report(num_ops: int = 1000) -> PipelineReport:
    serial = nonpipelined_total_cycles(num_ops)
    pipelined = pipelined_total_cycles(num_ops)
    issues = pipelined_schedule(num_ops)
    intervals = [after - before
                 for before, after in zip(issues, issues[1:])]
    mean_interval = (sum(intervals) / len(intervals)) if intervals else 0.0
    return PipelineReport(
        num_ops=num_ops,
        nonpipelined_cycles=serial,
        pipelined_cycles=pipelined,
        speedup=serial / pipelined if pipelined else 0.0,
        issue_interval=mean_interval,
    )
