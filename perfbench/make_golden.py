"""Regenerate ``golden.json``: the output digest of every workload at
seeds 0-15, at full size and at the call-counting run's size.

Usage, from the root of a checkout whose outputs are known to be right::

    python3 perfbench/make_golden.py

A change to the simulator that is meant to keep every output
byte-identical must leave this file unchanged.
"""

import json
import os
import sys

import run
from workloads import WORKLOADS, golden_key

SEEDS = range(16)


def main() -> int:
    golden = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            for scale in (1.0, run.COUNT_SCALE):
                result = run.run_worker(name, seed, "untraced", scale)
                problems = ([result["error"]] if "error" in result
                            else result["problems"])
                if problems:
                    print(f"{name} seed {seed}: {problems}",
                          file=sys.stderr)
                    return 1
                golden[golden_key(name, seed, scale)] = result["digest"]
    with open(os.path.join(run.HERE, "golden.json"), "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
