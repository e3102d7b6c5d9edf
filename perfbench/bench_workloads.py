"""The vmpg benchmark workloads and the run loop that measures them.

A run builds the workload's fixed list of solves from the seed, times its
set-up, computes reference optima outside every timed region, and then
repeats the whole list ("a pass") until the run's measuring time is up.
Every pass must reproduce the first pass bit for bit (iterations, status and
final objective of each solve), traced passes included.

Why each workload exists, and which layer it loads, is in README.md next to
this file.
"""

import csv
import dataclasses
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import ClassVar

import numpy as np

import vmpg.cli
import vmpg.consensus
import vmpg.solver
from vmpg.problems import generate_qp, generate_regression, smooth_part
from vmpg.prox import Lasso
from vmpg.solver import CONVERGED, LINE_SEARCH_FAILURE, MAX_ITER, SolverConfig

import bench_refs
from bench_refs import BenchmarkError
from bench_trace import Tracer, install

OUT_DIR = Path(__file__).resolve().parent / "out"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"

SETUP_REPEATS = 3
# A solve fails when it stops more than this far above the reference, as a
# share of max(1, |F*|).
GAP_TOL = 1e-6
# A final objective this far below the reference means the reference or the
# program's objective is wrong; the run is void.
BELOW_TOL = 1e-9
# Reported objective vs. the objective recomputed here from the returned
# point, as a share of max(1, |F|).
CONSISTENCY_TOL = 1e-9

FAILURE_KINDS = ("early_stop", "max_iter", "ls_failure", "raised")


@dataclasses.dataclass(frozen=True)
class Outcome:
    """What one solve returned; equal outcomes are bit-identical."""

    label: str
    status: str
    iterations: int
    objective: float


@dataclasses.dataclass
class Pass:
    """One execution of a workload's full solve list."""

    solve_s: float
    outcomes: list
    iter_s: list             # per solve: wall seconds of each accepted iteration
    backtracks: int
    extra: dict = dataclasses.field(default_factory=dict)

    @property
    def iterations(self):
        return sum(o.iterations for o in self.outcomes)


def iteration_percentile(passes, q):
    """q-th percentile of iteration time within each variant, averaged over variants.

    Methods differ in their cost per iteration and the seed decides how many
    iterations each one takes, so a percentile of the pooled times would
    jump between the methods' modes from seed to seed.
    """
    by_variant = {}
    for p in passes:
        for outcome, times in zip(p.outcomes, p.iter_s):
            by_variant.setdefault(outcome.label.split("/")[0], []).append(times)
    pooled = [np.concatenate(t) for t in by_variant.values()]
    values = [float(np.percentile(t, q)) for t in pooled if t.size]
    return statistics.mean(values) if values else 0.0


def _instance_seeds(seed, count):
    return [seed * count + j for j in range(count)]


def _iteration_times(wall_ms):
    """Per-iteration seconds from a trace's cumulative wall_ms column."""
    wall = np.asarray(wall_ms, dtype=float)
    return np.diff(wall, prepend=0.0) / 1e3


def _relative(delta, reference):
    return delta / max(1.0, abs(reference))


def classify(outcome, reference):
    """Failure kind of one solve against its reference optimum, or None."""
    if outcome.status == "raised":
        return "raised"
    if not np.isfinite(outcome.objective):
        raise BenchmarkError(f"{outcome.label}: non-finite objective {outcome.objective}")
    gap = _relative(outcome.objective - reference, reference)
    if gap < -BELOW_TOL:
        raise BenchmarkError(
            f"{outcome.label}: objective {outcome.objective!r} is below the "
            f"reference {reference!r} (relative {gap:.3g})"
        )
    if outcome.status == CONVERGED:
        return None if gap <= GAP_TOL else "early_stop"
    if outcome.status == MAX_ITER:
        return "max_iter"
    if outcome.status == LINE_SEARCH_FAILURE:
        return "ls_failure"
    raise BenchmarkError(f"{outcome.label}: unknown status {outcome.status!r}")


# --- library workloads -------------------------------------------------------


class _LibraryWorkload:
    """Shared pass loop for workloads that call solve/solve_consensus."""

    span = "solver.solve"

    def run_pass(self, ctx, tracer=None):
        outcomes, times, backtracks, exchanged, solve_s = [], [], 0, 0, 0.0
        for inst in ctx:
            for variant in self.variants:
                call, objectives, regularizers = self.prepare(inst, variant)
                label = f"{variant}/{inst['seed']}"
                traced = (install(tracer, objectives, regularizers)
                          if tracer else nullcontext())
                with traced:
                    if tracer:
                        call = tracer.wrap(self.span, call, new_run=True)
                    start = time.perf_counter()
                    try:
                        result = call()
                    except Exception:  # a raising solve is counted, not fatal
                        traceback.print_exc()
                        result = None
                    solve_s += time.perf_counter() - start
                if result is None:
                    outcomes.append(Outcome(label, "raised", 0, None))
                    times.append(np.zeros(0))
                    continue
                self.verify(inst, label, result)
                outcomes.append(Outcome(label, result.status, result.iterations,
                                        float(result.final_objective)))
                times.append(_iteration_times([r.wall_ms for r in result.trace]))
                backtracks += sum(r.backtracks for r in result.trace)
                exchanged += sum(getattr(r, "bytes_exchanged", 0) for r in result.trace)
        return Pass(solve_s, outcomes, times, backtracks, {"bytes_exchanged": exchanged})

    def references(self, ctx):
        refs = {}
        for inst in ctx:
            value = self.reference(inst)
            for variant in self.variants:
                refs[f"{variant}/{inst['seed']}"] = value
        return refs

    @staticmethod
    def _check_point(label, x, objective, recomputed):
        if not np.all(np.isfinite(x)):
            raise BenchmarkError(f"{label}: non-finite entries in the solution")
        if not abs(_relative(objective - recomputed, recomputed)) <= CONSISTENCY_TOL:
            raise BenchmarkError(
                f"{label}: reported objective {objective!r} but the returned "
                f"point evaluates to {recomputed!r}"
            )


@dataclasses.dataclass(frozen=True)
class LassoLS(_LibraryWorkload):
    """solve on LS lasso; matvec-bound, so f.value/f.gradient dominate."""

    name: ClassVar[str] = "lasso-ls"
    instances: int = 3
    rows: int = 2000
    cols: int = 500
    variants: tuple = ("vmpg-dbb", "pg-bb", "fista")
    eps_tol: float = 1e-4
    max_iter: int = 600

    def setup(self, seed):
        ctx = []
        for s in _instance_seeds(seed, self.instances):
            problem = generate_regression(self.rows, self.cols, "ls", s)
            f = smooth_part(problem)
            f.smoothness  # FISTA's stepsize; cached on the objective
            ctx.append(dict(seed=s, problem=problem, f=f))
        return ctx

    def reference(self, inst):
        p = inst["problem"]
        return bench_refs.lasso_ls(p.A, p.b, p.lam)[1]

    def prepare(self, inst, method):
        f, g = inst["f"], Lasso(inst["problem"].lam)
        config = SolverConfig(method=method, eps_tol=self.eps_tol, max_iter=self.max_iter)
        x0 = np.zeros(self.cols)
        return (lambda: vmpg.solver.solve(f, g, x0, config)), [f], [g]

    def verify(self, inst, label, result):
        p, x = inst["problem"], result.x
        r = p.A @ x - p.b
        recomputed = float(r @ r / p.A.shape[0] + p.lam * np.abs(x).sum())
        self._check_point(label, x, result.final_objective, recomputed)


@dataclasses.dataclass(frozen=True)
class ConsensusLS(_LibraryWorkload):
    """solve_consensus on sharded LS; per-round Python work over the nodes dominates."""

    name: ClassVar[str] = "consensus-ls"
    span: ClassVar[str] = "consensus.solve_consensus"
    instances: int = 40
    rows: int = 4000
    cols: int = 100
    nodes: int = 20
    ridge: float = 1e-2
    mu: float = 1.0
    variants: tuple = vmpg.consensus.MODES
    eps_tol: float = 1e-4
    max_iter: int = 200

    def setup(self, seed):
        ctx = []
        for s in _instance_seeds(seed, self.instances):
            problem = generate_regression(self.rows, self.cols, "ls", s)
            shards = vmpg.consensus.split_regression(problem, self.nodes, self.ridge)
            ctx.append(dict(seed=s, problem=problem, shards=shards))
        return ctx

    def reference(self, inst):
        p = inst["problem"]
        return bench_refs.pooled_ridge(p.A, p.b, self.ridge, self.nodes)[1]

    def prepare(self, inst, mode):
        shards = inst["shards"]
        config = SolverConfig(mu=self.mu, eps_tol=self.eps_tol, max_iter=self.max_iter)
        x0 = np.zeros(self.cols)
        call = lambda: vmpg.consensus.solve_consensus(shards, x0, mode=mode, config=config)  # noqa: E731
        return call, shards.objectives, []

    def verify(self, inst, label, result):
        p, z = inst["problem"], result.z
        r = p.A @ z - p.b
        recomputed = float(r @ r / p.A.shape[0] + self.nodes * self.ridge * (z @ z))
        self._check_point(label, z, result.final_objective, recomputed)


# --- the CLI workload --------------------------------------------------------

SUMMARY_HEADER = ["method", "seed", "iterations", "wall_ms", "final_objective",
                  "status", "iter_mean", "iter_stddev"]
TRACE_HEADER = ["iter", "objective", "grad_map_norm", "step_norm_u", "backtracks",
                "u_min", "u_max", "wall_ms"]


def _read_csv(path, header):
    """Rows of a vmpg CSV after its '#' metadata lines; checks the header."""
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    except OSError as err:
        raise BenchmarkError(f"cannot read {path}: {err}") from None
    if not rows or rows[0] != header:
        raise BenchmarkError(f"{path}: malformed header {rows[:1]}")
    if any(len(row) != len(header) for row in rows[1:]):
        raise BenchmarkError(f"{path}: a row has the wrong number of columns")
    return rows[1:]


@dataclasses.dataclass(frozen=True)
class CliQPGrid:
    """vmpg bench on nonnegative QPs, in-process at CLI defaults."""

    name: ClassVar[str] = "cli-qp-grid"
    seeds: int = 100
    n: int = 100
    kappa: str = "1e4"
    methods: tuple = ("vmpg-dbb", "pg-bb", "fista")

    def setup(self, seed):
        """Time to a usable CLI: a fresh interpreter importing vmpg.cli."""
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        subprocess.run([sys.executable, "-c", "import vmpg.cli"], env=env,
                       check=True, timeout=120)
        return dict(seeds=_instance_seeds(seed, self.seeds),
                    out=OUT_DIR / f"{self.name}-{os.getpid()}")

    def references(self, ctx):
        refs = {}
        for s in ctx["seeds"]:
            p = generate_qp(self.n, float(self.kappa), s)
            value = bench_refs.nonneg_qp(p.Q, p.q)[1] + p.p
            refs.update({f"{m}/{s}": value for m in self.methods})
        return refs

    def run_pass(self, ctx, tracer=None):
        out = ctx["out"]
        shutil.rmtree(out, ignore_errors=True)
        argv = ["bench", "--kind", "qp", "--n", str(self.n), "--kappa", self.kappa,
                "--reg", "nonneg", "--method", ",".join(self.methods),
                "--seed", ",".join(map(str, ctx["seeds"])), "--out", str(out)]
        main = vmpg.cli.main
        try:
            with install(tracer) if tracer else nullcontext():
                if tracer:
                    main = tracer.wrap("cli.main", main)
                start = time.perf_counter()
                code = main(argv)
                solve_s = time.perf_counter() - start
            if code not in (0, 2):
                raise BenchmarkError(f"vmpg bench exited with code {code}")
            return self._read_outputs(ctx, out, solve_s)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _read_outputs(self, ctx, out, solve_s):
        rows = _read_csv(out / "summary.csv", SUMMARY_HEADER)
        expected = [(m, str(s)) for s in ctx["seeds"] for m in self.methods]
        per_solve = [r for r in rows if r[1] != "aggregate"]
        if [(r[0], r[1]) for r in per_solve] != expected:
            raise BenchmarkError("summary.csv does not list every (method, seed) once")
        if len(rows) - len(per_solve) != len(self.methods):
            raise BenchmarkError("summary.csv lacks its per-method aggregate rows")
        outcomes, times, backtracks = [], [], 0
        for method, seed, iters, _, objective, status, _, _ in per_solve:
            try:
                outcome = Outcome(f"{method}/{seed}", status, int(iters), float(objective))
                trace = _read_csv(out / f"trace_{method}_{seed}.csv", TRACE_HEADER)
                wall = [float(row[7]) for row in trace]
                backtracks += sum(int(row[4]) for row in trace)
            except ValueError as err:
                raise BenchmarkError(f"unparsable output for {method}/{seed}: {err}") from None
            if len(trace) != outcome.iterations or float(trace[-1][1]) != outcome.objective:
                raise BenchmarkError(f"trace of {method}/{seed} disagrees with summary.csv")
            outcomes.append(outcome)
            times.append(_iteration_times(wall))
        files = [p for p in out.iterdir() if p.suffix == ".csv"]
        extra = {
            "rows_written": sum(len(_read_csv(p, SUMMARY_HEADER if p.name == "summary.csv"
                                              else TRACE_HEADER)) for p in files),
            "bytes_written": sum(p.stat().st_size for p in files),
        }
        return Pass(solve_s, outcomes, times, backtracks, extra)


WORKLOADS = {w.name: w for w in (CliQPGrid(), LassoLS(), ConsensusLS())}


# --- the run ------------------------------------------------------------------


@dataclasses.dataclass
class RunResult:
    metrics: dict            # name -> (value, unit)
    attempted: int
    failed: int
    notes: list              # human-readable lines


def _check_repeats(passes):
    first = passes[0].outcomes
    for p in passes[1:]:
        if p.outcomes != first:
            bad = next(a.label for a, b in zip(first, p.outcomes) if a != b)
            raise BenchmarkError(f"a repeated pass changed the outcome of {bad}")


def run(workload, seed, seconds, trace):
    """Measure one workload; returns a RunResult or raises BenchmarkError."""
    setup_times, ctx = [], None
    for _ in range(SETUP_REPEATS):
        ctx = None  # let the previous build go before timing the next
        start = time.perf_counter()
        ctx = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
    refs = workload.references(ctx)
    plain, traced, tracer = [], [], None
    # Passes repeat while another one of the same length still fits in the
    # measuring time; there is always at least one.
    start = time.perf_counter()
    while True:
        plain.append(workload.run_pass(ctx))
        if trace:
            pass_tracer = Tracer()
            traced.append(workload.run_pass(ctx, pass_tracer))
            tracer = tracer or pass_tracer
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    _check_repeats(plain + traced)

    first = plain[0]
    kinds = [classify(o, refs[o.label]) for o in first.outcomes]
    failures = {k: kinds.count(k) for k in FAILURE_KINDS}
    solves = len(first.outcomes)
    n_passes = len(plain) + len(traced)
    notes = [
        f"workload {workload.name} seed {seed}: {len(plain)} passes"
        f"{f' + {len(traced)} traced' if trace else ''}, {solves} solves each",
        "failures: " + ", ".join(f"{k}={v}" for k, v in failures.items())
        + f" (fail_frac {sum(failures.values()) / solves:.4g}; gap bound {GAP_TOL:g})",
    ]
    by_variant = {}
    for outcome, kind in zip(first.outcomes, kinds):
        variant = outcome.label.split("/")[0]
        tally = by_variant.setdefault(variant, dict(solves=0, ok=0))
        tally["solves"] += 1
        tally[kind or "ok"] = tally.get(kind or "ok", 0) + 1
    notes.append("by variant: " + "; ".join(
        f"{v} " + " ".join(f"{k}={n}" for k, n in t.items()) for v, t in by_variant.items()))
    attempted = solves * n_passes
    failed = failures["raised"] * n_passes
    solve_s = statistics.median(p.solve_s for p in plain)
    notes.append("pass solve_s: " + ", ".join(f"{p.solve_s:.4g}" for p in plain))
    if not trace:
        notes.append(f"iteration samples: {first.iterations} per pass")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "solve_s": (solve_s, "s"),
            "iter_us_p50": (iteration_percentile(plain, 50) * 1e6, "us"),
            "iter_us_p90": (iteration_percentile(plain, 90) * 1e6, "us"),
            "iterations": (first.iterations, "count"),
            "solves": (solves, "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        return RunResult(metrics, attempted, failed, notes)

    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans_{workload.name}.npz"
    tracer.save(spans)
    notes.append(f"spans: {tracer.opened} opened, {len(tracer.log_start)} written to "
                 f"{spans.relative_to(OUT_DIR.parent.parent)}")
    overhead = statistics.median(p.solve_s for p in traced) / solve_s
    metrics = layer_metrics(tracer, traced[0], failures, overhead)
    return RunResult(metrics, attempted, failed, notes)


def layer_metrics(tracer, traced_pass, failures, overhead):
    """Per-layer metrics of one traced pass, from the tracer's totals."""
    calls, counts = tracer.calls, tracer.counts
    iters = max(traced_pass.iterations, 1)
    evals = calls["problems.value"] + calls["problems.gradient"]
    prox_calls = calls["prox.prox"]
    rounds = calls["consensus.round"]
    solves = len(traced_pass.outcomes)
    return {
        "problems.value_calls": (calls["problems.value"], "count"),
        "problems.gradient_calls": (calls["problems.gradient"], "count"),
        "problems.evals_per_iter": (evals / iters, "count"),
        "problems.matvecs_per_iter": (counts["problems.matvecs"] / iters, "count"),
        "problems.bytes_per_iter": (counts["problems.bytes"] / iters, "B"),
        "problems.self_s": (tracer.layer_self_s("problems"), "s"),
        "prox.calls": (prox_calls, "count"),
        "prox.calls_per_iter": (prox_calls / iters, "count"),
        "prox.us_per_call": (tracer.total_s["prox.prox"] / max(prox_calls, 1) * 1e6, "us"),
        "prox.self_s": (tracer.layer_self_s("prox"), "s"),
        "stepsize.calls": (calls["stepsize.diagonal_bb"] + calls["stepsize.hybrid_bb"], "count"),
        "stepsize.self_s": (tracer.layer_self_s("stepsize"), "s"),
        "core.metric_builds": (calls["core.metric_build"], "count"),
        "core.metric_builds_per_iter": (calls["core.metric_build"] / iters, "count"),
        "core.validate_calls": (calls["core.validate"], "count"),
        "core.self_s": (tracer.layer_self_s("core"), "s"),
        "solver.line_search_calls": (calls["solver.line_search"], "count"),
        "solver.backtracks_per_iter": (traced_pass.backtracks / iters, "count"),
        "solver.self_s": (tracer.layer_self_s("solver"), "s"),
        "solver.max_iter_runs": (failures["max_iter"], "count"),
        "solver.early_stops": (failures["early_stop"], "count"),
        "solver.ls_failures": (failures["ls_failure"], "count"),
        "consensus.rounds": (rounds, "count"),
        "consensus.round_self_s": (tracer.self_s["consensus.round"], "s"),
        "consensus.evals_per_round": (counts["consensus.round_evals"] / max(rounds, 1), "count"),
        "consensus.bytes_per_round": (traced_pass.extra.get("bytes_exchanged", 0) / iters, "B"),
        "cli.self_s": (tracer.self_s["cli.main"], "s"),
        "cli.rows_written": (traced_pass.extra.get("rows_written", 0), "count"),
        "cli.bytes_written": (traced_pass.extra.get("bytes_written", 0), "B"),
        "trace.overhead": (overhead, "ratio"),
        "fail_frac": (sum(failures.values()) / solves, "ratio"),
    }
