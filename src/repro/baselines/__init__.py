"""Baseline schedulers and datastructures the paper compares against."""

from repro._lazy import lazy_namespace

_EXPORTS = {
    "repro.baselines.approximate": ("CalendarQueue", "MultiPriorityFifo",
                                    "TimingWheel"),
    "repro.baselines.fifo": ("FifoScheduler",),
    "repro.baselines.pheap": ("PHeap",),
    "repro.baselines.pifo_scheduler": ("PifoShapingScheduler",),
    "repro.baselines.pifo_wf2q": ("HeadPacket", "ideal_wf2q_order",
                                  "order_deviation", "paper_example",
                                  "single_pifo_order", "two_pifo_order"),
}

__all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
