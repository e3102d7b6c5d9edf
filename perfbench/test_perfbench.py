"""Tests of the benchmark harness itself, on shrunken workloads."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench_workloads  # noqa: E402
import run  # noqa: E402
import vmpg.solver  # noqa: E402
from bench_refs import BenchmarkError  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from bench_workloads import (  # noqa: E402
    CliQPGrid, ConsensusLS, LassoLS, Outcome, classify,
)

TINY = {
    "cli-qp-grid": CliQPGrid(seeds=2, n=20),
    "lasso-ls": LassoLS(instances=1, rows=60, cols=20),
    "consensus-ls": ConsensusLS(instances=1, rows=200, cols=10, nodes=4),
}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(bench_workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(bench_workloads, "SETUP_REPEATS", 1)


def _run_main(trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "all", "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_printed_metric_is_declared(tiny, trace, section):
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    lines = _run_main(trace)
    results = [json.loads(line) for line in lines if line.startswith('{"correct"')]
    assert len(results) == len(TINY)
    assert json.loads(lines[-1]) == results[-1]
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = [line.split() for line in lines if " = " in line]
    assert printed and all(words[1] in declared for words in printed)
    assert {m["name"] for m in DECLARED["workloads"]} == set(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_passes_are_bit_identical(name):
    workload = TINY[name]
    ctx = workload.setup(0)
    originals = (vmpg.solver.line_search, vmpg.solver.DiagonalMetric.__init__)
    plain = workload.run_pass(ctx)
    tracer = Tracer()
    traced = workload.run_pass(ctx, tracer)
    assert plain.iterations > 0
    assert traced.outcomes == plain.outcomes
    assert tracer.calls["problems.gradient"] > 0 and tracer.calls["prox.prox"] > 0
    assert (vmpg.solver.line_search, vmpg.solver.DiagonalMetric.__init__) == originals


def test_planted_early_stop_counts_as_failure(monkeypatch):
    monkeypatch.setattr(bench_workloads, "SETUP_REPEATS", 1)
    result = bench_workloads.run(LassoLS(instances=1, rows=60, cols=20, max_iter=5),
                                 seed=0, seconds=0, trace=True)
    assert result.metrics["fail_frac"][0] == 1.0
    assert result.metrics["solver.max_iter_runs"][0] == 3

    reference = -2.0
    assert classify(Outcome("a", "converged", 9, reference + 1e-3), reference) == "early_stop"
    assert classify(Outcome("a", "converged", 9, reference + 1e-9), reference) is None
    with pytest.raises(BenchmarkError):
        classify(Outcome("a", "converged", 9, reference - 1e-6), reference)


def test_run_without_sources_exits_nonzero_silently(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lasso-ls", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
