"""CLI: regenerate every paper figure/table.

Usage::

    python -m repro.experiments                  # everything
    python -m repro.experiments fig11            # one experiment by keyword
    python -m repro.experiments --backend fast rate
    python -m repro.experiments --list-backends
    python -m repro.experiments fig11 --trace t.jsonl --metrics m.json
    python -m repro.experiments fig11 --trace t.jsonl --analyze
    python -m repro.experiments fig12 --jobs 4
    python -m repro.experiments incast --ports 4 --drop-policy red
    python -m repro.experiments incast --algorithm wfq --trace t.jsonl
    python -m repro.experiments --list-algorithms
    python -m repro.experiments fig12 --jobs 4 --heartbeat
    python -m repro.experiments fig11 --trace t.jsonl --profile-runtime

``--backend`` selects the ordered-list engine (from the
:mod:`repro.core.backends` registry) for the experiments that exercise a
software list: the Fig. 2 expressiveness replay and the software
scheduling-rate table.  The cycle-accurate figures (fig8-fig10, the
ablations) always run on the ``"hardware"`` model — their entire point is
the accounting.

``--trace FILE`` streams structured events (JSONL, one JSON object per
line) from every simulation-driven experiment that supports
observability (fig11, fig12); ``--metrics FILE`` writes the aggregated
counters/gauges/histograms as JSON after the run.  ``--duration SECONDS``
overrides the simulated duration of those experiments (handy for quick
traced runs).  ``--analyze`` pipes the finished ``--trace`` file through
``python -m repro.obs summarize`` for per-flow latency attribution and
then through ``python -m repro.conformance check --trace`` so every
traced experiment run doubles as a conformance audit (non-zero exit on
any violated invariant).

``--jobs N`` shards sweep-style experiments' points over N worker
processes.  It is result-preserving: tables and traces stay
byte-identical to ``--jobs 1`` (DESIGN.md section 9).

``--heartbeat`` reports sweep liveness (points completed, per-point
wall time, ETA, worker health) on stderr — and, when tracing, as
``sweep.heartbeat`` mark events (wall-clock fields, so the trace is no
longer byte-reproducible).  ``--profile-runtime [FILE]`` samples the
host call stack for the whole run and writes a per-component wall-time
attribution report (:mod:`repro.obs.runtime`): JSON to ``FILE``, to
``<trace>.runtime.json`` when only ``--trace`` is given (where
``python -m repro.obs summarize`` picks it up automatically), or text
to stderr with neither.

The multi-port incast experiment additionally honours ``--ports N``
(output-port count), ``--drop-policy NAME`` (shared-buffer admission,
from the :mod:`repro.sim.buffer` registry; see
``--list-drop-policies``), and ``--algorithm NAME`` (per-port
scheduler, from the :mod:`repro.sched.registry` catalogue; see
``--list-algorithms``).  DESIGN.md section 10 covers the dataplane
composition.

The multi-switch experiments (``fct``, ``fabric-incast``) run whole
:mod:`repro.net` fabrics — routed hosts, per-switch shared buffers,
seeded ECMP — and additionally honour ``--workload NAME`` (heavy-tail
flow-size distribution for ``fct``: web-search, data-mining, pareto).
DESIGN.md section 13 covers the fabric layer.

::

    python -m repro.experiments fct --algorithm fcfs --jobs 3
    python -m repro.experiments fct --workload web-search --trace t.jsonl
    python -m repro.experiments fabric-incast --drop-policy red
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import sys

from repro.experiments import (alms_table, all_nodes_table,
                               approx_structures_table, clock_table,
                               deviation_sweep, example_table,
                               fabric_incast_table, fair_queue_table,
                               fct_table, incast_table,
                               pipeline_table,
                               rate_limit_table, rate_table,
                               scalability_table,
                               shaping_comparison_table,
                               software_rate_table, sram_table,
                               structure_comparison_table,
                               sublist_ablation_table,
                               trigger_ablation_table)

EXPERIMENTS = {
    "fig2": (example_table, deviation_sweep),
    "fig8": (alms_table,),
    "fig9": (sram_table,),
    "fig10": (clock_table,),
    "fig11": (rate_limit_table, all_nodes_table),
    "fig12": (fair_queue_table,),
    "incast": (incast_table,),
    "fabric-incast": (fabric_incast_table,),
    "fct": (fct_table,),
    "rate": (rate_table, software_rate_table),
    "scalability": (scalability_table,),
    "ablation": (sublist_ablation_table, approx_structures_table,
                 trigger_ablation_table),
    "pipeline": (pipeline_table,),
    "shaping": (shaping_comparison_table,),
    "structures": (structure_comparison_table,),
}

#: Reusable no-op scope for the unprofiled path.
_NULL_PHASE = contextlib.nullcontext()


def _write_runtime_report(report, dest, trace_path) -> None:
    """Emit a ``--profile-runtime`` report: JSON to a file, or text to
    stderr when the destination is ``-`` (the traceless default)."""
    import json
    if dest == "":
        dest = (f"{trace_path}.runtime.json" if trace_path is not None
                else "-")
    if dest == "-":
        print(report.to_text(), file=sys.stderr)
        return
    with open(dest, "w") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"runtime profile -> {dest}", file=sys.stderr)


def _print_charts() -> None:
    from repro.experiments.charts import (fig8_chart, fig10_chart,
                                          fig11_chart)
    for chart_fn in (fig8_chart, fig10_chart, fig11_chart):
        print(chart_fn())
        print()


def _call(table_fn, backend, tracer=None, metrics=None, duration=None,
          jobs=None, ports=None, drop_policy=None,
          algorithm=None, workload=None, heartbeat=None):
    """Pass each option only to experiments that accept it, so the
    cycle-accurate tables stay untouched by the flags."""
    parameters = inspect.signature(table_fn).parameters
    kwargs = {}
    if heartbeat is not None and "heartbeat" in parameters:
        kwargs["heartbeat"] = heartbeat
    if backend is not None and "backend" in parameters:
        kwargs["backend"] = backend
    if tracer is not None and "tracer" in parameters:
        kwargs["tracer"] = tracer
    if metrics is not None and "metrics" in parameters:
        kwargs["metrics"] = metrics
    if duration is not None and "duration" in parameters:
        kwargs["duration"] = duration
    if jobs is not None and "jobs" in parameters:
        kwargs["jobs"] = jobs
    if ports is not None and "ports" in parameters:
        kwargs["ports"] = ports
    if drop_policy is not None and "drop_policy" in parameters:
        kwargs["drop_policy"] = drop_policy
    if algorithm is not None and "algorithm" in parameters:
        kwargs["algorithm"] = algorithm
    if workload is not None and "workload" in parameters:
        kwargs["workload"] = workload
    return table_fn(**kwargs)


def main(argv) -> int:
    """CLI entry point: print the selected (or all) experiments."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and tables.")
    parser.add_argument(
        "keys", nargs="*",
        help=f"experiments to run: {', '.join(EXPERIMENTS)}, charts "
             "(default: all)")
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="ordered-list backend for software-list experiments "
             "(see --list-backends)")
    parser.add_argument(
        "--list-backends", action="store_true",
        help="list registered ordered-list backends and exit")
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="stream structured trace events (JSONL) from "
             "observability-aware experiments to FILE")
    parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write aggregated metrics (JSON) from observability-aware "
             "experiments to FILE")
    parser.add_argument(
        "--duration", default=None, type=float, metavar="SECONDS",
        help="override the simulated duration of simulation-driven "
             "experiments")
    parser.add_argument(
        "--analyze", action="store_true",
        help="after the run, summarize the --trace file with "
             "'python -m repro.obs summarize' (requires --trace)")
    parser.add_argument(
        "--jobs", default=None, type=int, metavar="N",
        help="shard sweep points of sweep-style experiments (fig11, "
             "fig12, incast) over N worker processes; output is "
             "byte-identical to --jobs 1")
    parser.add_argument(
        "--ports", default=None, type=int, metavar="N",
        help="number of output ports for multi-port experiments "
             "(incast; default 4)")
    parser.add_argument(
        "--drop-policy", default=None, metavar="NAME",
        help="shared-buffer drop policy for multi-port experiments "
             "(see --list-drop-policies)")
    parser.add_argument(
        "--list-drop-policies", action="store_true",
        help="list registered shared-buffer drop policies and exit")
    parser.add_argument(
        "--algorithm", default=None, metavar="NAME",
        help="per-port scheduling algorithm for experiments that "
             "accept one (incast; see --list-algorithms)")
    parser.add_argument(
        "--list-algorithms", action="store_true",
        help="list registered scheduling algorithms and exit")
    parser.add_argument(
        "--workload", default=None, metavar="NAME",
        help="flow-size workload for the fct experiment: web-search, "
             "data-mining, or pareto (default pareto)")
    parser.add_argument(
        "--profile-runtime", nargs="?", const="", default=None,
        metavar="FILE",
        help="profile host wall-clock time during the run and write a "
             "component-attribution report (JSON) to FILE; with no "
             "FILE, defaults to <trace>.runtime.json when --trace is "
             "given, else prints the report to stderr")
    parser.add_argument(
        "--heartbeat", action="store_true",
        help="report sweep liveness (points done, per-point wall time, "
             "ETA) on stderr and, with --trace, as heartbeat mark "
             "events (wall-clock fields make the trace "
             "non-reproducible)")
    args = parser.parse_args(argv[1:])

    if args.list_backends:
        from repro.core.backends import available_backends, get_backend
        for name in available_backends():
            print(f"{name:12s} {get_backend(name).description}")
        return 0
    if args.list_drop_policies:
        from repro.sim.buffer import (available_drop_policies,
                                      get_drop_policy)
        for name in available_drop_policies():
            print(f"{name:14s} {get_drop_policy(name).description}")
        return 0
    if args.list_algorithms:
        from repro.sched.registry import (available_algorithms,
                                          get_algorithm)
        for name in available_algorithms():
            print(f"{name:16s} {get_algorithm(name).description}")
        return 0
    if args.drop_policy is not None:
        from repro.errors import ConfigurationError
        from repro.sim.buffer import get_drop_policy
        try:
            get_drop_policy(args.drop_policy)  # fail fast
        except ConfigurationError as error:
            print(error)
            return 2
    if args.algorithm is not None:
        from repro.errors import ConfigurationError
        from repro.sched.registry import get_algorithm
        try:
            get_algorithm(args.algorithm)  # fail fast
        except ConfigurationError as error:
            print(error)
            return 2
    if args.workload is not None:
        from repro.net.workload import WORKLOADS
        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; choose from "
                  f"{', '.join(WORKLOADS)}")
            return 2
    if args.ports is not None and args.ports < 1:
        print(f"--ports must be >= 1, got {args.ports}")
        return 2
    if args.jobs is not None and args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}")
        return 2
    if args.backend is not None:
        from repro.core.backends import get_backend
        from repro.errors import ConfigurationError
        try:
            get_backend(args.backend)  # fail fast on unknown names
        except ConfigurationError as error:
            print(error)
            return 2
    if args.duration is not None and args.duration <= 0:
        print(f"--duration must be positive, got {args.duration}")
        return 2
    if args.analyze and args.trace is None:
        print("--analyze requires --trace FILE")
        return 2

    tracer = None
    metrics = None
    if args.trace is not None:
        from repro.obs import Tracer
        tracer = Tracer.open_jsonl(args.trace)
    if args.metrics is not None:
        from repro.obs import MetricsRegistry
        metrics = MetricsRegistry()
    heartbeat = None
    if args.heartbeat:
        from repro.obs.runtime import SweepHeartbeat
        heartbeat = SweepHeartbeat(tracer=tracer)
    profiler = None
    if args.profile_runtime is not None:
        from repro.obs.runtime import RuntimeProfiler
        profiler = RuntimeProfiler()
        profiler.start()

    keys = args.keys if args.keys else list(EXPERIMENTS) + ["charts"]
    try:
        for key in keys:
            if key == "charts":
                _print_charts()
                continue
            if key not in EXPERIMENTS:
                print(f"unknown experiment {key!r}; choose from "
                      f"{', '.join(EXPERIMENTS)}, charts")
                return 2
            for table_fn in EXPERIMENTS[key]:
                with (profiler.phase(key) if profiler is not None
                      else _NULL_PHASE):
                    table = _call(table_fn, args.backend, tracer=tracer,
                                  metrics=metrics,
                                  duration=args.duration,
                                  jobs=args.jobs, ports=args.ports,
                                  drop_policy=args.drop_policy,
                                  algorithm=args.algorithm,
                                  workload=args.workload,
                                  heartbeat=heartbeat)
                print(table.to_text())
                print()
    finally:
        if tracer is not None:
            tracer.close()
            print(f"trace: {tracer.emitted} events -> {args.trace}",
                  file=sys.stderr)
        if metrics is not None:
            metrics.write_json(args.metrics)
            print(f"metrics -> {args.metrics}", file=sys.stderr)
        if profiler is not None:
            profiler.stop()
            _write_runtime_report(profiler.report(),
                                  args.profile_runtime, args.trace)
    if args.analyze:
        from repro.conformance.__main__ import main as conf_main
        from repro.obs.__main__ import main as obs_main
        print()
        status = obs_main(["repro.obs", "summarize", args.trace])
        if status:
            return status
        # Conformance audit of the same trace: the universal
        # invariants (conservation, per-flow FIFO, link overlap) per
        # sweep segment; non-zero on any violation.
        print()
        return conf_main(["check", "--trace", args.trace])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
