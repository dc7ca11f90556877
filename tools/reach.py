"""Reachability pass: which functions under ``src/`` do the CLIs and the
examples enter?

Runs every command-line entry point of the package and every script in
``examples/`` inside this one process under :func:`sys.setprofile`,
records each Python function entered, and prints per file under
``src/`` the functions entered out of those defined and the lines of
the functions never entered, then the totals::

    python tools/reach.py           # per-file table and totals
    python tools/reach.py --list    # also name every unentered function

A function's lines run from its first decorator to its last line; the
lines of a function nested in an unentered one are counted once, with
the outer one.  Only this process is followed: the worker processes of
the ``--jobs 2`` runs are not, so worker code, like invariant checkers
and error branches that no run reaches, counts as unentered.  The
unentered figures are therefore an upper bound on the code nothing
reaches.  The whole pass takes several minutes; a run whose exit status
is not the expected one (zero, or non-zero for a run that injects a
fault) is named on stderr and makes the script exit 1.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples"


class Function(NamedTuple):
    path: str        # relative to src/
    qualname: str
    first: int       # first line, decorators included
    last: int


def inventory() -> Dict[Tuple[str, int], Function]:
    """Every ``def`` under ``src/``, keyed by (absolute file, first
    line): the key a code object's ``co_filename``/``co_firstlineno``
    gives."""
    functions = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [decorator.lineno for
                                                  decorator in
                                                  child.decorator_list])
                    qualname = f"{prefix}{child.name}"
                    functions[(str(path), first)] = Function(
                        relative, qualname, first, child.end_lineno)
                    visit(child, f"{qualname}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return functions


class Run(NamedTuple):
    kind: str            # ``module`` (``python -m target``) or ``script``
    target: str
    argv: List[str]
    fails: bool = False  # the run must exit non-zero


def runs(scratch: str) -> List[Run]:
    """Every run of the pass, in order."""

    def out(name: str) -> str:
        return os.path.join(scratch, name)

    experiments = [
        [],
        ["fct"],
        ["fabric-incast"],
        ["fig12", "--jobs", "2"],
        ["fig11", "--duration", "0.002", "--trace", out("fig11.jsonl"),
         "--metrics", out("fig11.json"), "--analyze"],
        ["incast", "--duration", "0.001", "--drop-policy",
         "longest-queue", "--trace", out("incast.jsonl"),
         "--metrics", out("incast.json")],
        ["fct", "--duration", "0.002", "--trace", out("fct.jsonl"),
         "--metrics", out("fct.json")],
        ["fig11", "--duration", "0.001", "--jobs", "2", "--heartbeat",
         "--trace", out("fig11-jobs2.jsonl")],
        ["incast", "--duration", "0.001", "--drop-policy", "red"],
        ["fct", "--duration", "0.002", "--workload", "web-search"],
        ["fct", "--duration", "0.002", "--workload", "data-mining"],
        ["--list-backends"],
        ["--list-algorithms"],
        ["--list-drop-policies"],
    ]
    plan = [Run("module", "repro.experiments", argv)
            for argv in experiments]
    plan.append(Run("module", "repro.experiments.report",
                    [out("RESULTS.md")]))
    plan += [Run("module", "repro.conformance", argv) for argv in (
        ["sweep", "--metamorphic"], ["report"],
        ["check", "--algorithm", "wf2q+"],
        ["check", "--trace", out("incast.jsonl")])]
    # The injected fault must be caught: this run exits non-zero.
    plan.append(Run("module", "repro.conformance",
                    ["check", "--algorithm", "drr", "--inject", "reorder"],
                    fails=True))
    for name in ("fig11", "incast", "fct"):
        trace = out(f"{name}.jsonl")
        plan += [Run("module", "repro.obs", argv) for argv in (
            ["summarize", trace], ["flows", trace], ["timeline", trace],
            ["audit", trace],
            ["export", trace, "--perfetto", out(f"{name}-perfetto.json"),
             "--report", out(f"{name}-flows.json"),
             "--metrics-json", out(f"{name}.json"),
             "--prometheus", out(f"{name}.prom")])]
    fig11 = out("fig11.jsonl")
    plan += [Run("module", "repro.obs", argv) for argv in (
        ["flows", fig11, "--starvation-ms", "1.0"],
        ["flows", fig11, "--costs", out("fig11.json")],
        ["timeline", fig11, "--flow", "n6.f2", "--limit", "20"])]
    plan += [Run("script", str(path), [])
             for path in sorted(EXAMPLES.glob("*.py"))]
    return plan


def entered_codes(plan) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run the plan under the profiler; returns the ``(file, first
    line)`` of every code object entered and the runs that failed."""
    codes: set = set()
    add = codes.add

    def profile(frame, event, arg):
        add(frame.f_code)

    failed = []
    saved_argv = sys.argv
    sys.path.insert(0, str(SRC))
    for kind, target, argv, fails in plan:
        sys.argv = [target, *argv]
        sink = io.StringIO()
        code = 0
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                if kind == "module":
                    runpy.run_module(target, run_name="__main__",
                                     alter_sys=True)
                else:
                    runpy.run_path(target, run_name="__main__")
        except SystemExit as exit_:
            code = exit_.code
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        if (code not in (0, None)) != fails:
            expected = "non-zero" if fails else "0"
            failed.append(f"{target} {' '.join(argv)} (exit {code}, "
                          f"expected {expected})")
    sys.argv = saved_argv
    return {(code.co_filename, code.co_firstlineno)
            for code in codes}, failed


def main() -> int:
    listing = "--list" in sys.argv[1:]
    functions = inventory()
    with tempfile.TemporaryDirectory() as scratch:
        entered, failed = entered_codes(runs(scratch))
    per_file: Dict[str, List[Function]] = {}
    unentered: Dict[str, List[Function]] = {}
    for key, function in functions.items():
        per_file.setdefault(function.path, []).append(function)
        if key not in entered:
            unentered.setdefault(function.path, []).append(function)
    width = max(len(path) for path in per_file)
    print(f"{'file':<{width}}  entered/total  unentered lines")
    total_lines = 0
    for path in sorted(per_file):
        dead = unentered.get(path, [])
        lines = sum(function.last - function.first + 1
                    for function in dead
                    if not _inside_unentered(function, dead))
        total_lines += lines
        count = len(per_file[path])
        print(f"{path:<{width}}  {count - len(dead):>7}/{count:<5}  "
              f"{lines:>15}")
        if listing:
            for function in sorted(dead, key=lambda f: f.first):
                print(f"    {function.first}: {function.qualname} "
                      f"({function.last - function.first + 1} lines)")
    total = len(functions)
    reached = total - sum(len(dead) for dead in unentered.values())
    print(f"total: {reached} of {total} functions entered; "
          f"{total_lines} lines in unentered functions")
    for run in failed:
        print(f"failed run: {run}", file=sys.stderr)
    return 1 if failed else 0


def _inside_unentered(function: Function, dead: List[Function]) -> bool:
    """Whether ``function`` is nested in another unentered function of
    its file (its lines are then counted with that one)."""
    return any(other.first < function.first and function.last
               <= other.last for other in dead if other is not function)


if __name__ == "__main__":
    sys.exit(main())
