"""Clock-rate and scheduling-rate models (Fig. 10 and Section 6.2).

The achievable clock rate of a synthesized scheduler falls as the circuit
grows, because the cycle-1 parallel compare + priority encode spans more
lanes.  We model

``fmax(lanes) = base_clock / (1 + lanes / lane_knee)``

with a per-design ``lane_knee`` calibrated to the paper's two anchors on
Stratix V:

* PIEO runs at ~80 MHz at its largest evaluated size ("even at 80 MHz ...
  one can execute a PIEO primitive operation every 50 ns", Section 6.2);
* the PIFO baseline clocked at 57 MHz (at its maximum 1 K size).

ASIC targets return their flat base clock (Section 6.2: PIFO reaches
1 GHz on an ASIC; a PIEO primitive op would take 4 ns).

Scheduling rate then follows from cycles-per-operation: PIEO takes 4
cycles per primitive op (non-pipelined), PIFO 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pieo.hardware_list import CYCLES_PER_OP
from repro.core.pifo.flipflop_list import PIFO_CYCLES_PER_OP
from repro.hw.device import ASIC, STRATIX_V, Device
from repro.hw.resources import pieo_lanes, pifo_lanes

#: Calibrated so pieo fmax(30K lanes) ~ 80 MHz on Stratix V.
PIEO_LANE_KNEE = 648.0
#: Calibrated so pifo fmax(1K lanes) ~ 57 MHz on Stratix V.
PIFO_LANE_KNEE = 449.0

#: MTU-timescale decision budget at 100 Gbps (Section 1): a 1500 B packet
#: serializes in 120 ns.
MTU_BUDGET_NS_AT_100G = 120.0


def _fmax_mhz(lanes: float, lane_knee: float, device: Device) -> float:
    if device.base_clock_mhz >= 1000.0:
        # ASIC-class targets: custom layout keeps the compare/encode path
        # within one fast cycle across the evaluated size range.
        return device.base_clock_mhz
    return device.base_clock_mhz / (1.0 + lanes / lane_knee)


def pieo_clock_mhz(capacity: int, device: Device = STRATIX_V) -> float:
    """Fig. 10: clock rate of the PIEO circuit at a given size."""
    return _fmax_mhz(pieo_lanes(capacity), PIEO_LANE_KNEE, device)


def pifo_clock_mhz(capacity: int, device: Device = STRATIX_V) -> float:
    """Clock rate of the PIFO baseline circuit at a given size."""
    return _fmax_mhz(pifo_lanes(capacity), PIFO_LANE_KNEE, device)


@dataclass(frozen=True)
class RateReport:
    """Scheduling-rate figures for one design point (Section 6.2)."""

    capacity: int
    device: str
    clock_mhz: float
    cycles_per_op: int
    op_latency_ns: float
    ops_per_second: float
    #: Largest packet size (bytes) schedulable at 100 Gbps line rate with
    #: one decision per packet.
    min_packet_bytes_at_100g: float

    @property
    def meets_mtu_at_100g(self) -> bool:
        """Can this design schedule MTU packets at 100 Gbps?"""
        return self.op_latency_ns <= MTU_BUDGET_NS_AT_100G


def pieo_rate_report(capacity: int, device: Device = STRATIX_V,
                     ) -> RateReport:
    clock = pieo_clock_mhz(capacity, device)
    return _rate_report(capacity, device, clock, CYCLES_PER_OP)


def pifo_rate_report(capacity: int, device: Device = STRATIX_V,
                     ) -> RateReport:
    clock = pifo_clock_mhz(capacity, device)
    return _rate_report(capacity, device, clock, PIFO_CYCLES_PER_OP)


def _rate_report(capacity: int, device: Device, clock_mhz: float,
                 cycles: int) -> RateReport:
    latency_ns = cycles * 1_000.0 / clock_mhz
    # bytes = latency * 100 Gbps / 8 bits
    min_packet = latency_ns * 100.0 / 8.0
    return RateReport(
        capacity=capacity,
        device=device.name,
        clock_mhz=clock_mhz,
        cycles_per_op=cycles,
        op_latency_ns=latency_ns,
        ops_per_second=clock_mhz * 1e6 / cycles,
        min_packet_bytes_at_100g=min_packet,
    )
