"""The perf gate's decision rule (``benchmarks/gate.py compare``).

Runs ``compare`` on synthetic records in a temporary directory; no
perfbench run is made.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "benchmarks" / "gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
RATE_BOUND = next(metric["bound"] for metric in BENCHMARK["end_to_end"]
                  if metric["name"] == "pkts_per_s")


def make_record(workload, **overrides):
    metrics = {"pkts_per_s": 40000.0, "setup_s": 0.05,
               "peak_rss_mb": 30.0}
    metrics.update({name: 10.0 for name in gate.COUNTS})
    metrics.update(overrides)
    return {"schema_version": 2, "workload": workload, "python": "3.11",
            "git_commit": "abc1234", "metrics": metrics}


def write_dir(directory, changed=None, **overrides):
    """One record per workload; ``overrides`` apply to ``changed`` only
    (every workload when ``changed`` is None)."""
    directory.mkdir()
    for workload in WORKLOADS:
        record = make_record(workload)
        if changed in (None, workload):
            record["metrics"].update(overrides)
        (directory / f"BENCH_{workload}.json").write_text(
            json.dumps(record))
    return directory


def run_compare(tmp_path, **overrides):
    baseline = write_dir(tmp_path / "baseline")
    current = write_dir(tmp_path / "current", changed="hier", **overrides)
    return gate.main(["compare", "--baseline-dir", str(baseline),
                      "--current-dir", str(current)])


def test_identical_records_pass(tmp_path, capsys):
    assert run_compare(tmp_path) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("pkts_per_s") == len(WORKLOADS)


@pytest.mark.parametrize("ratio, status", [
    (1 - RATE_BOUND + 0.001, 0),
    (1 - RATE_BOUND - 0.001, 1),
    (2.0, 0),
])
def test_rate_bound_comes_from_benchmark_json(tmp_path, ratio, status):
    assert run_compare(tmp_path, pkts_per_s=40000.0 * ratio) == status


@pytest.mark.parametrize("name", gate.COUNTS)
@pytest.mark.parametrize("ratio, status", [
    (1.049, 0), (1.051, 1), (0.5, 0)])
def test_count_bound(tmp_path, name, ratio, status):
    assert gate.COUNT_BOUND == 0.05
    assert run_compare(tmp_path, **{name: 10.0 * ratio}) == status


def test_count_rising_from_zero_fails(tmp_path):
    baseline = write_dir(tmp_path / "baseline",
                         **{"net.hops_per_pkt": 0.0})
    current = write_dir(tmp_path / "current",
                        **{"net.hops_per_pkt": 0.1})
    assert gate.main(["compare", "--baseline-dir", str(baseline),
                      "--current-dir", str(current)]) == 1


@pytest.mark.parametrize("name", ["setup_s", "peak_rss_mb"])
def test_setup_and_rss_are_printed_not_gated(tmp_path, capsys, name):
    assert run_compare(tmp_path, **{name: 100.0}) == 0
    assert "not gated" in capsys.readouterr().out


def _compare_with(tmp_path, mutate):
    baseline = write_dir(tmp_path / "baseline")
    current = write_dir(tmp_path / "current")
    mutate(current / "BENCH_hier.json")
    return gate.main(["compare", "--baseline-dir", str(baseline),
                      "--current-dir", str(current)])


def _rewrite(path, change):
    record = json.loads(path.read_text())
    change(record)
    path.write_text(json.dumps(record))


@pytest.mark.parametrize("mutate, message", [
    (lambda path: path.unlink(), "No such file"),
    (lambda path: path.write_text("{"), "BENCH_hier.json"),
    (lambda path: _rewrite(path, lambda record: record.update(
        schema_version=1)), "not a schema_version 2 record"),
    (lambda path: path.write_text(json.dumps({
        "schema_version": 1, "scenario": "hier",
        "metrics": {"normalized": {"median": 1.0}}})),
     "not a schema_version 2 record"),
    (lambda path: _rewrite(path, lambda record: record["metrics"].pop(
        "py.calls_per_pkt")), "'py.calls_per_pkt' missing"),
    (lambda path: _rewrite(path, lambda record: record.pop("python")),
     "not a schema_version 2 record"),
    (lambda path: _rewrite(path, lambda record: record.update(
        python="3.12")), "Python 3.11, current on 3.12"),
], ids=["missing", "malformed", "old-version", "v1-record",
        "missing-metric", "no-python", "python-mismatch"])
def test_unusable_record_fails_loudly(tmp_path, capsys, mutate,
                                      message):
    assert _compare_with(tmp_path, mutate) == 1
    assert message in capsys.readouterr().out
