"""Benchmark of the PIEO simulator: five workloads, end-to-end metrics
and a per-layer ladder, measured from outside the program.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hier --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, every metric
    python3 perfbench/run.py --list              # the workloads and why

Every run is a fresh ``perfbench/worker.py`` process, and only one runs
at a time.  A measurement starts with one discarded warm-up run per
workload.  ``--trace 0`` then repeats untraced runs for ``--seconds``
(at least five) and reports the end-to-end metrics as medians.
``--trace 1`` instead alternates traced runs (span timers, per-layer
self time) with the untraced runs they are compared with, at least
three pairs, and ends with a call-counting run at a fifth of the size;
it reports the per-layer metrics.  ``--workload all`` interleaves the
workloads round robin, does both, and reports both sets.

Each run is one operation.  It fails if it raises, breaks an output
invariant, or produces a digest other than the one ``golden.json``
holds for its (workload, seed, size) -- or, without one there, other
than the digest of the invocation's other runs of that size.  The last
line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 if any run
failed, 2 on a usage error or when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from worker import REFERENCE_SPEED
from workloads import WORKLOADS, golden_key

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Untraced runs per workload behind an end-to-end median, at least.
MIN_TIMED_RUNS = 5
#: Traced runs per workload behind a per-layer median, at least.
MIN_TRACED_RUNS = 3
#: Size of the call-counting run (``sys.setprofile`` is slow).
COUNT_SCALE = 0.2
#: A run that takes longer than this has hung (runs take 1-6 s).
WORKER_TIMEOUT_S = 40
#: No run starts this long after a workload's measurement began, even
#: below the minimum, so an invocation ends within 180 s.
LIMIT_S = 90


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_golden() -> Dict[str, str]:
    with open(os.path.join(HERE, "golden.json")) as handle:
        return json.load(handle)


def run_worker(workload: str, seed: int, mode: str,
               scale: float) -> dict:
    """One run in a fresh process; ``{"error": ...}`` if it failed."""
    spec = json.dumps({"workload": workload, "seed": seed, "mode": mode,
                       "scale": scale, "src": SRC})
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {WORKER_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """The runs of one workload and what went wrong in them."""

    def __init__(self, name: str, seed: int,
                 golden: Dict[str, str]) -> None:
        self.name = name
        self.seed = seed
        self.golden = golden
        self.runs: Dict[str, List[dict]] = {"untraced": [], "traced": [],
                                            "count": []}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._digests: Dict[float, str] = {}

    def run(self, mode: str, scale: float, keep: bool = True) -> float:
        """Make one run and check it; returns its wall time."""
        began = time.monotonic()
        result = run_worker(self.name, self.seed, mode, scale)
        self.attempted += 1
        problems = ([result["error"]] if "error" in result
                    else result["problems"] + self._digest_problems(
                        result["digest"], scale))
        if problems:
            self.failed += 1
            self.failures += [f"{self.name} {mode} run: {problem}"
                              for problem in problems]
        elif keep:
            self.runs[mode].append(result)
        return time.monotonic() - began

    def _digest_problems(self, digest: str, scale: float) -> List[str]:
        expected = self.golden.get(golden_key(self.name, self.seed, scale))
        if expected is None:
            expected = self._digests.setdefault(scale, digest)
        if digest != expected:
            return [f"output digest {digest[:16]} differs from "
                    f"{expected[:16]}"]
        return []


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        p25 = p75 = values[0]
    else:
        p25, _, p75 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "p25": p25, "p75": p75,
            "n": len(values)}


def end_to_end(tally: Tally) -> Dict[str, Dict[str, float]]:
    runs = tally.runs["untraced"]
    if not runs:
        return {}
    return {name: _quartiles([run["metrics"][name] for run in runs])
            for name in ("pkts_per_s", "setup_s", "peak_rss_mb")}


def per_layer(tally: Tally) -> Dict[str, Dict[str, float]]:
    untraced, traced, counted = (tally.runs[mode] for mode in
                                 ("untraced", "traced", "count"))
    if not (untraced and traced and counted):
        return {}
    metrics = {name: _quartiles([run["metrics"][name] for run in traced])
               for name in traced[0]["metrics"]
               if name not in ("traced_wall_s", "attributed_s")}
    # Each traced run is compared with the untraced run made right after
    # it, which saw the same host conditions.
    pairs = [(run["metrics"], after["metrics"]["wall_s"])
             for run, after in zip(traced, untraced)]
    metrics["ladder.residue_pct"] = _quartiles(
        [100.0 * (wall - run["attributed_s"]) / wall
         for run, wall in pairs])
    metrics["trace.overhead_pct"] = _quartiles(
        [100.0 * (run["traced_wall_s"] - wall) / wall
         for run, wall in pairs])
    metrics.update((name, _quartiles([value])) for name, value
                   in counted[0]["metrics"].items())
    return metrics


def measure(names: List[str], seed: int, seconds: float, timed: bool,
            traced: bool, scale: float = 1.0) -> Dict[str, Tally]:
    """Run the workloads ``names`` round robin (see the module doc)."""
    golden = load_golden()
    tallies = {name: Tally(name, seed, golden) for name in names}
    started = time.monotonic()
    for tally in tallies.values():
        tally.run("untraced", scale, keep=False)
    modes = ("traced", "untraced") if traced else ("untraced",)
    minimum = max(MIN_TIMED_RUNS if timed else 0,
                  MIN_TRACED_RUNS if traced else 0)
    budget = seconds * len(names)
    rounds = 0
    last_round = 0.0
    while time.monotonic() - started < LIMIT_S * len(names) and (
            rounds < minimum
            or time.monotonic() - started + last_round <= budget):
        last_round = sum(tally.run(mode, scale)
                         for tally in tallies.values() for mode in modes)
        rounds += 1
    if traced:
        for tally in tallies.values():
            tally.run("count", scale * COUNT_SCALE)
    return tallies


def report(tallies: Dict[str, Tally], wanted: List[dict],
           prefix: bool) -> dict:
    """Print every wanted metric of every workload; return the result
    object for the last line."""
    metrics = {}
    for tally in tallies.values():
        found = {**end_to_end(tally), **per_layer(tally)}
        print(f"== {tally.name} (seed {tally.seed}): {tally.attempted} "
              f"runs, {tally.failed} failed")
        for failure in tally.failures:
            print(f"   FAILED {failure}")
        kept = tally.runs["untraced"] or tally.runs["traced"]
        if kept:
            outputs = ", ".join(f"{key} {value:.4g}" for key, value
                                in kept[0]["outputs"].items())
            print(f"   simulated: {outputs}")
        if tally.runs["untraced"]:
            raw = {name: statistics.median(
                run["metrics"][name] for run in tally.runs["untraced"])
                for name in ("host_speed", "raw_pkts_per_s",
                             "raw_setup_s")}
            print(f"   host speed {raw['host_speed']:.3f} (reference "
                  f"{REFERENCE_SPEED}); unnormalized pkts_per_s "
                  f"{raw['raw_pkts_per_s']:.6g}, setup_s "
                  f"{raw['raw_setup_s']:.6g}")
        for spec in wanted:
            stats = found.get(spec["name"])
            if stats is None:
                continue
            print(f"   {spec['name']:32s} {stats['median']:14.6g} "
                  f"{spec['unit']:14s} p25 {stats['p25']:.6g} "
                  f"p75 {stats['p75']:.6g} n {stats['n']}")
            key = (f"{tally.name}/{spec['name']}" if prefix
                   else spec["name"])
            metrics[key] = {"value": stats["median"], "unit": spec["unit"]}
    attempted = sum(tally.attempted for tally in tallies.values())
    failed = sum(tally.failed for tally in tallies.values())
    complete = len(metrics) == len(wanted) * len(tallies)
    return {"correct": failed == 0 and complete, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def list_workloads(spec: dict) -> None:
    for entry in spec["workloads"]:
        workload = WORKLOADS[entry["name"]]
        print(f"{workload.name}\n  loop: {workload.loop}\n"
              f"  size: {workload.size}\n  why:  {entry['why']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Benchmark the PIEO simulator end to end and per "
                    "layer.")
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the paper configuration")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics instead of end-to-end")
    parser.add_argument("--list", action="store_true",
                        help="print the workloads and exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no simulator source under {SRC}: run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.list:
        list_workloads(spec)
        return 0
    known = [entry["name"] for entry in spec["workloads"]]
    if args.workload == "all":
        names, timed, traced = known, True, True
        wanted = spec["end_to_end"] + spec["per_layer"]
    elif args.workload in known:
        names, timed, traced = [args.workload], not args.trace, bool(
            args.trace)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    else:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(known)}, all", file=sys.stderr)
        return 2
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    tallies = measure(names, args.seed, seconds, timed, traced)
    result = report(tallies, wanted, prefix=args.workload == "all")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
