#!/usr/bin/env python3
"""Quickstart: the PIEO primitive in five minutes.

Covers the three primitive operations (Section 3.1) on both the software
reference list and the cycle-accurate hardware model, and shows the
"smallest ranked eligible" semantics that distinguishes PIEO from a
priority queue (PIFO).

Run:  python examples/quickstart.py
"""

from repro import Element, PifoHardwareList, make_list


def primitive_basics() -> None:
    print("=== PIEO primitive: enqueue(f) / dequeue() / dequeue(f) ===")
    # Ordered lists come from the backend registry; swap "reference" for
    # "hardware" (cycle accounting) freely.
    pieo = make_list("reference")

    # Each element carries a programmable rank (scheduling order) and a
    # send_time encoding the predicate (current_time >= send_time).
    pieo.enqueue(Element("video", rank=10, send_time=0))     # eligible now
    pieo.enqueue(Element("paced", rank=1, send_time=100))    # eligible at 100
    pieo.enqueue(Element("bulk", rank=20, send_time=0))

    # At t=5 the smallest *eligible* rank wins: "paced" has the smallest
    # rank but is not yet eligible, so "video" is scheduled.
    served = pieo.dequeue(now=5)
    print(f"t=5   -> {served.flow_id}  (rank 1 exists but is ineligible)")

    # At t=100 "paced" becomes eligible and immediately wins.
    served = pieo.dequeue(now=100)
    print(f"t=100 -> {served.flow_id}")

    # dequeue(f) extracts a specific element regardless of eligibility —
    # the hook for asynchronous rank updates (Section 4.4).
    extracted = pieo.dequeue_flow("bulk")
    print(f"dequeue(f) -> {extracted.flow_id}; list is now empty: "
          f"{len(pieo) == 0}")


def pifo_cannot_do_this() -> None:
    print("\n=== Why PIFO is not enough ===")
    pifo = PifoHardwareList(capacity=16)
    pifo.enqueue(Element("paced", rank=1, send_time=100))
    pifo.enqueue(Element("video", rank=10, send_time=0))
    served = pifo.dequeue()  # always the head — eligibility is ignored
    print(f"PIFO serves {served.flow_id!r} even though it should not be "
          "sent before t=100")


def hardware_model() -> None:
    print("\n=== The Section 5 hardware design, cycle by cycle ===")
    # 64-element PIEO: sublists of ceil(sqrt(64)) = 8 elements, 16
    # sublists, pointer array in flip-flops, everything else in SRAM.
    pieo = make_list("hardware", capacity=64)
    for index in range(40):
        pieo.enqueue(Element(f"flow{index}", rank=index % 10,
                             send_time=0))
    pieo.dequeue(now=0)
    pieo.dequeue_flow("flow7")

    counters = pieo.counters
    print(f"sublists: {pieo.num_sublists} x {pieo.sublist_size} elements")
    print(f"operations: {counters.ops}")
    print(f"total cycles: {counters.cycles} "
          f"({counters.cycles / counters.total_ops():.1f} per op — the "
          "paper's 4)")
    print(f"SRAM sublist reads/writes: {counters.sram_sublist_reads}/"
          f"{counters.sram_sublist_writes} (<= 2 per op: dual-port)")
    print(f"comparator activations: {counters.comparator_activations} "
          "(O(sqrt N) lanes per op)")

    # At 80 MHz (the paper's clock at 30 K elements) each op is 50 ns.
    from repro.hw import pieo_rate_report
    report = pieo_rate_report(30_000)
    print(f"on Stratix V at 30K flows: {report.clock_mhz:.0f} MHz -> "
          f"{report.op_latency_ns:.0f} ns/op; MTU @ 100 Gbps needs 120 ns "
          f"-> meets line rate: {report.meets_mtu_at_100g}")


if __name__ == "__main__":
    primitive_basics()
    pifo_cannot_do_this()
    hardware_model()
