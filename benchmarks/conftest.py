"""Benchmark-suite helpers.

Every benchmark regenerates one paper table/figure.  Because pytest
captures stdout, each generated table is also written to
``bench_results/<name>.txt`` next to this file, under a header that
records the git commit and run date it was measured at.
"""

from __future__ import annotations

import datetime
import pathlib
import subprocess
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

RESULTS_DIR = pathlib.Path(__file__).parent / "bench_results"


def git_commit() -> str:
    """Short commit hash of the working tree, or ``"unknown"``."""
    try:
        output = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if output.returncode != 0:
        return "unknown"
    return output.stdout.strip() or "unknown"


def write_table_text(path, text: str, run_date: str,
                     commit: str) -> pathlib.Path:
    """Write one table with its ``#``-prefixed provenance header."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = (f"# benchmark table\n# git-commit: {commit}\n"
              f"# run-date: {run_date}\n")
    path.write_text(header + "\n" + text.rstrip("\n") + "\n")
    return path


@pytest.fixture(scope="session")
def bench_provenance():
    """Session-wide provenance facts: (run_date, commit)."""
    return datetime.date.today().isoformat(), git_commit()


@pytest.fixture
def save_table(bench_provenance):
    """Persist (and print) an experiment table; returns the table."""
    run_date, commit = bench_provenance

    def _save(name, table):
        text = table.to_text()
        write_table_text(RESULTS_DIR / f"{name}.txt", text,
                         run_date=run_date, commit=commit)
        print()
        print(text)
        return table

    return _save
