"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import ladder
import run
import worker
import workloads

#: Share of each workload's size the tests run at.
TINY = 0.05
SPEC = run.load_spec()
NAMES = [entry["name"] for entry in SPEC["workloads"]]
ALL_METRICS = SPEC["end_to_end"] + SPEC["per_layer"]


def test_benchmark_json_names_the_workloads_the_benchmark_runs():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_every_workload_emits_every_metric(name, capsys):
    tallies = run.measure([name], seed=0, seconds=0, timed=True,
                          traced=True, scale=TINY)
    result = run.report(tallies, ALL_METRICS, prefix=False)
    assert result["failed"] == 0
    assert result["correct"]
    assert set(result["metrics"]) == {spec["name"]
                                      for spec in ALL_METRICS}
    assert result["metrics"]["pkts_per_s"]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reproduces_the_untraced_digest(name):
    untraced = worker.measure(name, 0, "untraced", TINY, run.SRC)
    traced = worker.measure(name, 0, "traced", TINY, run.SRC)
    assert untraced["problems"] == []
    assert traced["problems"] == []
    assert traced["digest"] == untraced["digest"]


def test_no_class_stays_patched_after_a_run():
    from repro.sim.events import Simulator
    targets = [(cls, name) for cls, name, _ in ladder.span_targets()]
    targets += [(Simulator, name)
                for name in ("schedule", "step", "run", "run_until")]

    def current():
        return {(cls, name): getattr(cls, name) for cls, name in targets}

    before = current()
    worker.measure("fabric", 0, "traced", TINY, run.SRC)
    worker.measure("hier-traced", 0, "count", TINY, run.SRC)
    assert current() == before


def test_a_doctored_golden_digest_fails_the_runs_and_the_exit_code(
        monkeypatch, capsys):
    key = workloads.golden_key("incast", 0, 1.0)
    monkeypatch.setattr(run, "load_golden", lambda: {key: "0" * 64})
    real_worker = run.run_worker
    monkeypatch.setattr(run, "run_worker",
                        lambda name, seed, mode, scale: real_worker(
                            name, seed, mode, scale * TINY))
    code = run.main(["--workload", "incast", "--seconds", "0",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("name", ["hier", "fabric"])
def test_exact_counters_repeat_across_runs(name):
    first = run.run_worker(name, 0, "count", TINY)
    second = run.run_worker(name, 0, "count", TINY)
    assert first["metrics"] == second["metrics"]
    assert first["metrics"]["py.calls_per_pkt"] > 0


def test_list_prints_every_workload(capsys):
    assert run.main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in NAMES:
        assert f"{name}\n" in out


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hier",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
