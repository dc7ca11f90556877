"""The perf gate: perfbench results as committed ``BENCH_*.json`` records.

::

    python benchmarks/gate.py record --out-dir DIR
    python benchmarks/gate.py compare --baseline-dir . --current-dir DIR

``record`` runs ``perfbench/run.py --seconds 0`` untraced and then
traced on every workload of ``BENCHMARK.json`` and writes one
``BENCH_<workload>.json`` per workload with both metric sets merged.  It
exits 1 if any perfbench run failed or produced a wrong digest.

``compare`` prints one row per gated metric and exits 1 when
``pkts_per_s`` falls by more than its ``BENCHMARK.json`` bound, when an
exact count rises by more than :data:`COUNT_BOUND`, or when a record is
missing, malformed, or of another schema or Python minor version (frame
counts are only comparable within one interpreter version).
``setup_s`` and ``peak_rss_mb`` are printed but not gated.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA_VERSION = 2
#: Largest allowed rise of an exact count over its baseline.
COUNT_BOUND = 0.05
RATE = "pkts_per_s"
COUNTS = ("py.calls_per_pkt", "core.ops_per_pkt", "sched.calls_per_pkt",
          "sched.decisions_per_pkt", "sim.events.fired_per_pkt",
          "sim.events.scheduled_per_pkt", "sim.buffer.admits_per_pkt",
          "net.hops_per_pkt", "obs.events_per_pkt")
UNGATED = ("setup_s", "peak_rss_mb")


class GateError(Exception):
    """A record that cannot be compared, or a perfbench run that failed."""


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _perfbench(workload: str, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seconds", "0", "--trace", str(trace)]
    output = subprocess.run(command, cwd=ROOT, capture_output=True,
                            text=True).stdout.splitlines()
    try:
        result = json.loads(output[-1])
    except (IndexError, ValueError):
        result = {}
    if result.get("correct") is not True or result.get("failed") != 0:
        raise GateError(f"{' '.join(command[1:])}: run failed "
                        f"({output[-1] if output else 'no output'})")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def record(out_dir: pathlib.Path) -> None:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    out_dir.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in _benchmark()["workloads"]):
        metrics = {**_perfbench(workload, 0), **_perfbench(workload, 1)}
        path = out_dir / f"BENCH_{workload}.json"
        path.write_text(json.dumps(
            {"schema_version": SCHEMA_VERSION, "workload": workload,
             "python": "%d.%d" % sys.version_info[:2],
             "git_commit": commit,
             "metrics": metrics}, indent=2, sort_keys=True) + "\n")
        print(f"{workload}: {metrics[RATE]:.0f} {RATE} -> {path}")


def _load(directory: pathlib.Path, workload: str) -> dict:
    path = directory / f"BENCH_{workload}.json"
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise GateError(f"{path}: {error}") from None
    if not isinstance(data, dict):
        data = {}
    if data.get("schema_version") != SCHEMA_VERSION \
            or not isinstance(data.get("python"), str):
        raise GateError(f"{path}: not a schema_version {SCHEMA_VERSION} "
                        "record")
    metrics = data.get("metrics")
    for name in (RATE, *COUNTS, *UNGATED):
        value = metrics.get(name) if isinstance(metrics, dict) else None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise GateError(f"{path}: metric {name!r} missing or not a "
                            "number")
    return data


def _verdict(name: str, ratio: float, rate_bound: float) -> str:
    if name == RATE:
        return "ok" if ratio >= 1 - rate_bound else "FAIL"
    if name in COUNTS:
        return "ok" if ratio <= 1 + COUNT_BOUND else "FAIL"
    return "not gated"


def compare(baseline_dir: pathlib.Path, current_dir: pathlib.Path) -> int:
    benchmark = _benchmark()
    rate_bound = next(metric["bound"] for metric in benchmark["end_to_end"]
                      if metric["name"] == RATE)
    failed = False
    print(f"{'workload':12s} {'metric':30s} {'baseline':>12s} "
          f"{'current':>12s} {'ratio':>7s}  verdict")
    for workload in (w["name"] for w in benchmark["workloads"]):
        try:
            base = _load(baseline_dir, workload)
            current = _load(current_dir, workload)
            if base["python"] != current["python"]:
                raise GateError(
                    f"{workload}: baseline recorded on Python "
                    f"{base['python']}, current on {current['python']}; "
                    "counts are not comparable across versions")
        except GateError as error:
            print(f"{workload:12s} error: {error}")
            failed = True
            continue
        for name in (RATE, *COUNTS, *UNGATED):
            old, new = base["metrics"][name], current["metrics"][name]
            ratio = new / old if old else (1.0 if new == old else math.inf)
            verdict = _verdict(name, ratio, rate_bound)
            failed |= verdict == "FAIL"
            print(f"{workload:12s} {name:30s} {old:12.4g} {new:12.4g} "
                  f"{ratio:7.3f}  {verdict}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/gate.py",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("record").add_argument("--out-dir", required=True,
                                          type=pathlib.Path)
    compare_parser = sub.add_parser("compare")
    for flag in ("--baseline-dir", "--current-dir"):
        compare_parser.add_argument(flag, required=True, type=pathlib.Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.baseline_dir, args.current_dir)
    try:
        record(args.out_dir)
    except GateError as error:
        print(error, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
