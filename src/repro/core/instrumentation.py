"""Instrumentation protocol: the semantics/accounting split.

The ordered-list implementations in this package serve two distinct
masters:

* the **cycle-accurate hardware models** exist to make claims about the
  paper's hardware design, so every primitive operation must charge
  cycles, SRAM ports, comparators, and encoders to an
  :class:`repro.core.opstats.OpCounters`;
* the **software engine** (the reference oracle) exists to *run
  simulations*, where per-operation accounting is pure overhead.

:class:`Instrumentation` is the seam between the two: it names the
charging interface that :class:`~repro.core.opstats.OpCounters` already
implements, and :class:`NullInstrumentation` provides a do-nothing stand-in
so a hardware model can be run with accounting disabled (and so software
backends never need to grow accounting at all).  Models keep exposing the
active instrumentation as their ``counters`` attribute, preserving the
existing ``structure.counters.cycles`` idiom wherever an
:class:`OpCounters` is in place.
"""

from __future__ import annotations

from typing import Dict, Protocol, runtime_checkable


@runtime_checkable
class Instrumentation(Protocol):
    """What a hardware model needs in order to charge its work.

    :class:`repro.core.opstats.OpCounters` is the canonical recording
    implementation; :class:`NullInstrumentation` discards everything.
    """

    def charge_op(self, name: str, cycles: int) -> None:
        """Record one completed primitive operation of ``cycles`` cycles."""

    def charge_compare(self, width: int) -> None:
        """Record one parallel compare over ``width`` lanes."""

    def charge_encode(self) -> None:
        """Record one priority-encoder activation."""

    def charge_sram_read(self, sublists: int = 1) -> None:
        """Record SRAM sublist reads."""

    def charge_sram_write(self, sublists: int = 1) -> None:
        """Record SRAM sublist writes."""


class NullInstrumentation:
    """Accounting sink that records nothing.

    Pass to a cycle-accurate model's ``instrumentation`` parameter when
    only the model's *semantics* are wanted and the charging overhead is
    not.
    """

    def charge_op(self, name: str, cycles: int) -> None:
        pass

    def charge_compare(self, width: int) -> None:
        pass

    def charge_encode(self) -> None:
        pass

    def charge_sram_read(self, sublists: int = 1) -> None:
        pass

    def charge_sram_write(self, sublists: int = 1) -> None:
        pass

    def reset(self) -> None:
        pass

    def snapshot(self) -> Dict[str, float]:
        """Match :meth:`OpCounters.snapshot`; always empty."""
        return {}


#: Shared stateless no-op instance (NullInstrumentation holds no state, so
#: one instance can serve every structure).
NULL_INSTRUMENTATION = NullInstrumentation()
