"""Evaluation harness: one module per paper figure plus ablations.

Run everything from the command line::

    python -m repro.experiments

or regenerate individual figures through the functions re-exported here
(each returns a :class:`repro.experiments.runner.Table`).
"""

from repro._lazy import lazy_namespace

_EXPORTS = {
    "repro.experiments.ablation_sublist": ("sublist_ablation_table",),
    "repro.experiments.ablation_trigger": ("trigger_ablation_table",),
    "repro.experiments.approx_structures": ("approx_structures_table",),
    "repro.experiments.end_to_end_shaping": ("shaping_comparison_table",),
    "repro.experiments.structure_comparison": (
        "structure_comparison_table",),
    "repro.experiments.pipeline_rate": ("pipeline_table",),
    "repro.experiments.fig2_expressiveness": ("deviation_sweep",
                                              "example_table",
                                              "run_paper_example"),
    "repro.experiments.fig8_alms": ("alms_table",),
    "repro.experiments.fig9_sram": ("sram_table",),
    "repro.experiments.fig10_clock": ("clock_table",),
    "repro.experiments.fig11_rate_limit": ("all_nodes_table",
                                           "rate_limit_table"),
    "repro.experiments.fig12_fair_queue": ("fair_queue_table",),
    "repro.experiments.incast": ("incast_table",),
    "repro.experiments.fabric_incast": ("fabric_incast_table",),
    "repro.experiments.fct": ("fct_table",),
    "repro.experiments.runner": ("Table",),
    "repro.experiments.scalability": ("scalability_table",),
    "repro.experiments.scheduling_rate": ("measured_cycles_per_op",
                                          "rate_table",
                                          "software_ops_per_sec",
                                          "software_rate_table"),
}

__all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
__all__.append("all_tables")


def all_tables():
    """Generate every evaluation table (several seconds of simulation)."""
    # A bare global read here would bypass the module ``__getattr__``.
    from repro.experiments import (
        alms_table, all_nodes_table, approx_structures_table, clock_table,
        deviation_sweep, example_table, fabric_incast_table,
        fair_queue_table, fct_table, incast_table, pipeline_table,
        rate_limit_table, rate_table, scalability_table,
        shaping_comparison_table, sram_table, structure_comparison_table,
        sublist_ablation_table, trigger_ablation_table)
    return [
        example_table(),
        deviation_sweep(),
        alms_table(),
        sram_table(),
        clock_table(),
        rate_table(),
        scalability_table(),
        rate_limit_table(),
        all_nodes_table(),
        fair_queue_table(),
        incast_table(),
        fabric_incast_table(),
        fct_table(),
        sublist_ablation_table(),
        approx_structures_table(),
        trigger_ablation_table(),
        pipeline_table(),
        shaping_comparison_table(),
        structure_comparison_table(),
    ]
