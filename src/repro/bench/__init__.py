"""Benchmark harness and machine-readable perf trajectory.

``repro.bench`` is the wall-clock counterpart of the sim-time
experiment tables: it measures registered scenarios with an interleaved
calibration-loop protocol (:mod:`repro.bench.harness`), records the
results as schema-versioned ``BENCH_<scenario>.json`` files at the repo
root (:mod:`repro.bench.results`), and gates the trajectory against
committed baselines (:mod:`repro.bench.compare`).  ``python -m
repro.bench run|compare|report`` is the CLI.

The submodules are imported lazily by the CLI; importing
:mod:`repro.bench` itself stays dependency-free, so the record helpers
load without dragging in the experiment stack.
"""

from repro._lazy import lazy_namespace

_EXPORTS = {
    "repro.bench.results": ("SCHEMA_VERSION", "BenchFormatError",
                            "bench_filename", "bench_path", "git_commit",
                            "load_bench", "make_metric",
                            "make_provenance", "make_result",
                            "provenance_header", "read_table_text",
                            "strip_provenance", "validate_result",
                            "write_bench", "write_table_text"),
}

__all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
