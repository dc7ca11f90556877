"""Hardware device, logic, SRAM, and clock models (Figs. 8-10)."""

from repro._lazy import lazy_namespace

_EXPORTS = {
    "repro.hw.clock": ("MTU_BUDGET_NS_AT_100G", "RateReport",
                       "asic_pieo_latency_ns", "pieo_clock_mhz",
                       "pieo_rate_report", "pifo_clock_mhz",
                       "pifo_rate_report"),
    "repro.hw.device": ("ASIC", "STRATIX_10", "STRATIX_V", "Device"),
    "repro.hw.resources": ("ALMS_PER_LANE", "LogicReport", "logic_report",
                           "max_capacity", "pieo_alms", "pieo_lanes",
                           "pifo_alms", "pifo_lanes",
                           "scalability_factor"),
    "repro.hw.sram": ("ENTRY_BITS", "SramReport", "sram_overhead_factor",
                      "sram_report"),
    "repro.hw.pipeline": ("PipelineReport", "nonpipelined_total_cycles",
                          "pipeline_report", "pipelined_schedule",
                          "pipelined_total_cycles"),
}

__all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
