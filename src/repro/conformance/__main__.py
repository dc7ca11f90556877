"""CLI: executable conformance checks for the algorithm catalogue.

Usage::

    python -m repro.conformance check --algorithm wf2q+
    python -m repro.conformance check --algorithm drr --seed 3 \\
        --backend fast
    python -m repro.conformance check --trace fig11.jsonl
    python -m repro.conformance check --algorithm drr --inject reorder
    python -m repro.conformance sweep
    python -m repro.conformance sweep --metamorphic
    python -m repro.conformance report

``check`` runs one algorithm's scenario (or audits an existing trace
stream) and exits non-zero on any unwaived violation.  ``--inject``
deliberately corrupts the trace first — the harness must then fail,
which CI uses to prove the checkers can fire.  ``sweep`` checks the
whole registry (optionally with the metamorphic transform battery);
``report`` prints each algorithm's promised bounds and documented
waivers without running anything.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.conformance.metamorphic import (TRANSFORMS,
                                           metamorphic_verdicts)
from repro.conformance.runner import (INJECTIONS, ConformanceReport,
                                      check_algorithm, check_trace,
                                      sweep_registry)
from repro.conformance.scenarios import SCENARIOS, make_scenario
from repro.sched.registry import available_algorithms, get_algorithm


def _print_report(report: ConformanceReport, verbose: bool) -> None:
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {report.algorithm} [{report.scenario}]")
    for outcome in report.outcomes:
        if outcome.violations and outcome.waived:
            flag = "waived"
        elif outcome.violations:
            flag = "FAIL"
        else:
            flag = "ok"
        line = f"  {outcome.checker:<24} {flag}"
        if outcome.violations:
            line += f" ({len(outcome.violations)} violation(s))"
        print(line)
        shown = outcome.violations if verbose \
            else outcome.violations[:3]
        for violation in shown:
            print(f"    - {violation}")
        hidden = len(outcome.violations) - len(shown)
        if hidden > 0:
            print(f"    ... {hidden} more")
        if outcome.violations and outcome.waived:
            print(f"    waiver: {outcome.waived}")


def _cmd_check(args) -> int:
    if args.trace:
        reports = check_trace(args.trace)
        if not reports:
            print(f"no runs found in {args.trace}")
            return 1
        for report in reports:
            _print_report(report, args.verbose)
        return 0 if all(report.passed for report in reports) else 1
    scenario = None
    if args.scenario:
        scenario = make_scenario(args.scenario, seed=args.seed)
    report = check_algorithm(args.algorithm, scenario=scenario,
                             seed=args.seed, backend=args.backend,
                             inject=args.inject)
    _print_report(report, args.verbose)
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    names = args.algorithm or available_algorithms()
    failed: List[str] = []
    for name in names:
        if args.metamorphic:
            spec = get_algorithm(name).spec
            scenario = make_scenario(spec.scenario, seed=args.seed)
            result = metamorphic_verdicts(
                name, scenario,
                substitutions=[{"backend": "fast"}])
            _print_report(result.base, args.verbose)
            for label in sorted(result.transformed):
                held = result.transformed[label].verdicts()
                agreed = held == result.base.verdicts()
                print(f"  metamorphic {label:<24} "
                      f"{'ok' if agreed else 'MISMATCH'}")
            for mismatch in result.mismatches:
                print(f"    ! {mismatch}")
            if not result.base.passed or not result.passed:
                failed.append(name)
        else:
            report = check_algorithm(name, seed=args.seed,
                                     backend=args.backend)
            _print_report(report, args.verbose)
            if not report.passed:
                failed.append(name)
    print()
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print(f"all {len(names)} algorithm(s) conform")
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.runner import Table
    table = Table(
        title="Promised bounds per registered algorithm",
        headers=["algorithm", "scenario", "checkers", "waived"])
    for name in available_algorithms():
        spec = get_algorithm(name).spec
        table.add_row(name, spec.scenario,
                      ", ".join(spec.checkers()),
                      ", ".join(sorted(spec.waivers)) or "-")
    print(table.to_text())
    waivers = [(name, checker, text)
               for name in available_algorithms()
               for checker, text in
               sorted(get_algorithm(name).spec.waivers.items())]
    if waivers:
        print("\nDocumented waivers:")
        for name, checker, text in waivers:
            print(f"  {name} / {checker}:\n    {text}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description="executable scheduling-spec conformance checks")
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser(
        "check", help="check one algorithm or an existing trace")
    target = check.add_mutually_exclusive_group(required=True)
    target.add_argument("--algorithm",
                        choices=available_algorithms(),
                        help="registered algorithm to scenario-check")
    target.add_argument("--trace",
                        help="JSONL trace stream to audit instead")
    check.add_argument("--scenario", choices=sorted(SCENARIOS),
                       help="override the spec's default scenario")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--backend", default=None,
                       help="ordered-list backend override")
    check.add_argument("--inject", choices=INJECTIONS,
                       help="corrupt the trace first (harness "
                            "self-test: the check must then fail)")
    check.add_argument("--verbose", action="store_true",
                       help="print every violation")
    check.set_defaults(func=_cmd_check)

    sweep = commands.add_parser(
        "sweep", help="check every registered algorithm")
    sweep.add_argument("--algorithm", action="append",
                       choices=available_algorithms(),
                       help="restrict to specific algorithm(s)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--backend", default=None)
    sweep.add_argument("--metamorphic", action="store_true",
                       help=f"also run the transform battery "
                            f"({', '.join(sorted(TRANSFORMS))}) plus "
                            "backend substitution")
    sweep.add_argument("--verbose", action="store_true")
    sweep.set_defaults(func=_cmd_sweep)

    report = commands.add_parser(
        "report", help="print promised bounds and waivers")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
