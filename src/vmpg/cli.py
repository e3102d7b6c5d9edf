"""Benchmark CLI: deterministic runs in, delimited files out.

Subcommands
-----------
bench      grid of (method x seed) runs on one problem family; trace CSV per
           run plus a summary CSV with per-method aggregate rows
sweep-mu   re-run one problem across diagonal-BB proximity weights mu
consensus  multi-node consensus benchmark with a bytes-exchanged column
gen        write a generated problem instance to an .npz file
solve      one (problem, method, seed) run; trace CSV and a summary line

All floats are written with 17 significant digits; every file carries a
metadata comment header (tool version, config hash, RNG id, seed).  Exit
codes: 0 success, 1 usage/config error, 2 at least one run failed.
"""

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from configparser import ConfigParser

import numpy as np

from . import __version__
from .consensus import MODES, solve_consensus, split_regression
from .problems import (
    QPProblem,
    RegressionProblem,
    generate_qp,
    generate_regression,
    load_csv,
    smooth_part,
)
from .prox import ElasticNet, Lasso, Nonnegative, Zero
from .solver import CONVERGED, METHODS, SolverConfig, solve

ENV_OUT_DIR = "VMPG_OUT_DIR"
KINDS = ("qp", "ls", "logistic")
REGULARIZERS = ("none", "nonneg", "lasso", "elastic-net")
TRACE_COLUMNS = (
    "iter",
    "objective",
    "grad_map_norm",
    "step_norm_u",
    "backtracks",
    "u_min",
    "u_max",
    "wall_ms",
)
SUMMARY_COLUMNS = (
    "method",
    "seed",
    "iterations",
    "wall_ms",
    "final_objective",
    "status",
    "iter_mean",
    "iter_stddev",
)
SWEEP_COLUMNS = ("mu", "seed", "iter", "objective")


class UsageError(ValueError):
    """Bad flags or config; maps to exit code 1."""


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _config_hash(spec):
    canon = json.dumps(spec, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _write_csv(path, columns, lines, spec, seed):
    """Write the metadata header, the column names and the formatted lines."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# vmpg {__version__}\n")
        fh.write(f"# config: {_config_hash(spec)}\n")
        fh.write("# rng: numpy-pcg64\n")
        fh.write(f"# seed: {seed}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(lines)


def _csv_lines(rows):
    """Rows of mixed cells, each cell written by _fmt."""
    return [",".join(_fmt(c) for c in row) + "\n" for row in rows]


# One template per trace row; %.17g writes a float exactly as _fmt does.
_TRACE_LINE = "%d,%.17g,%.17g,%.17g,%d,%.17g,%.17g,%.17g"


def _trace_lines(trace, timing):
    rows = [
        (r.iter, r.objective, r.grad_map_norm, r.step_norm_u, r.backtracks,
         r.u_min, r.u_max, 0.0 if timing == "none" else r.wall_ms)
        for r in trace
    ]
    if trace and hasattr(trace[0], "bytes_exchanged"):
        template = _TRACE_LINE + ",%d\n"
        return [template % (row + (r.bytes_exchanged,)) for row, r in zip(rows, trace)]
    template = _TRACE_LINE + "\n"
    return [template % row for row in rows]


def _parse_int_list(text, flag):
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated integer list, got {text!r}")


def _parse_float_list(text, flag):
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated float list, got {text!r}")


def _default_eps(kind):
    return 1e-2 if kind == "logistic" else 1e-4


def _default_lam(kind):
    return 1e-4 if kind == "logistic" else 1e-2


def _build_problem(spec, seed):
    kind = spec["kind"]
    if spec.get("data") is not None:
        loss = "ls" if kind == "ls" else "logistic"
        return load_csv(
            spec["data"], spec.get("label_column", 0), loss=loss, lam=spec.get("lam")
        )
    n = spec["n"]
    if kind == "qp":
        return generate_qp(n, spec["kappa"], seed)
    n_samples = spec.get("n_samples") or max(2, int(round(0.2 * n)))
    return generate_regression(
        n_samples, n, kind, seed, noise=spec.get("noise", 0.2), lam=spec.get("lam")
    )


def _regularizer(spec, problem):
    reg = spec["reg"]
    lam = spec.get("lam")
    if lam is None:
        lam = problem.lam if isinstance(problem, RegressionProblem) else _default_lam(
            spec["kind"]
        )
    if reg == "none":
        return Zero()
    if reg == "nonneg":
        return Nonnegative()
    if reg == "lasso":
        return Lasso(lam)
    if reg == "elastic-net":
        return ElasticNet(lam, spec.get("lam2") or lam)
    raise UsageError(f"unknown regularizer {reg!r}; choose from {REGULARIZERS}")


def _solver_config(spec, method=None):
    kind = spec["kind"]
    kwargs = dict(
        method=method or "vmpg-dbb",
        eps_tol=_default_eps(kind) if spec.get("eps_tol") is None else spec["eps_tol"],
        max_iter=5000 if spec.get("max_iter") is None else spec["max_iter"],
    )
    for key in ("mu", "m_ls", "beta", "delta", "line_search"):
        if spec.get(key) is not None:
            kwargs[key] = spec[key]
    try:
        return SolverConfig(**kwargs)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _aggregate_rows(per_method):
    rows = []
    for method in per_method:
        runs = per_method[method]
        iters = [r["iterations"] for r in runs]
        walls = [r["wall_ms"] for r in runs]
        objs = [r["final_objective"] for r in runs]
        ok = all(r["status"] == CONVERGED for r in runs)
        rows.append(
            [
                method,
                "aggregate",
                statistics.median(iters),
                statistics.median(walls),
                statistics.median(objs),
                "converged" if ok else "failed",
                statistics.mean(iters),
                statistics.pstdev(iters),
            ]
        )
    return rows


def _summary_rows(records, per_method):
    rows = [
        [
            r["method"],
            r["seed"],
            r["iterations"],
            r["wall_ms"],
            r["final_objective"],
            r["status"],
            "",
            "",
        ]
        for r in records
    ]
    return rows + _aggregate_rows(per_method)


def _grid(spec, variants, runs, columns):
    """Solve every (seed, variant) cell; write its trace and summary.csv.

    runs(seed) builds the seed's problem and returns a function that solves
    it for one variant (a method or a consensus mode).
    """
    out = spec["out"]
    timing = spec.get("timing", "wall")
    records = []
    per_variant = {v: [] for v in variants}
    for seed in spec["seeds"]:
        run = runs(seed)
        for variant in variants:
            start = time.perf_counter()
            result = run(variant)
            wall = 0.0 if timing == "none" else (time.perf_counter() - start) * 1e3
            _write_csv(
                os.path.join(out, f"trace_{variant}_{seed}.csv"),
                columns,
                _trace_lines(result.trace, timing),
                spec,
                seed,
            )
            record = {
                "method": variant,
                "seed": seed,
                "iterations": result.iterations,
                "wall_ms": wall,
                "final_objective": result.final_objective,
                "status": result.status,
            }
            records.append(record)
            per_variant[variant].append(record)
    _write_csv(
        os.path.join(out, "summary.csv"),
        SUMMARY_COLUMNS,
        _csv_lines(_summary_rows(records, per_variant)),
        spec,
        ",".join(str(s) for s in spec["seeds"]),
    )
    return 0 if all(r["status"] == CONVERGED for r in records) else 2


def cmd_bench(spec):
    def runs(seed):
        problem = _build_problem(spec, seed)
        f = smooth_part(problem)
        g = _regularizer(spec, problem)
        x0 = np.zeros(f.dim)
        return lambda method: solve(f, g, x0, _solver_config(spec, method))

    return _grid(spec, spec["methods"], runs, TRACE_COLUMNS)


def cmd_sweep_mu(spec):
    out = spec["out"]
    mus = spec.get("mus") or [1e-8, 1e-2, 1e-1, 1.0]
    instances = []
    for seed in spec["seeds"]:
        problem = _build_problem(spec, seed)
        instances.append((seed, smooth_part(problem), _regularizer(spec, problem)))
    long_rows = []
    summary = []
    failed = False
    for mu in mus:
        config = _solver_config(dict(spec, mu=mu), "vmpg-dbb")
        for seed, f, g in instances:
            result = solve(f, g, np.zeros(f.dim), config)
            failed = failed or result.status != CONVERGED
            for rec in result.trace:
                long_rows.append([mu, seed, rec.iter, rec.objective])
            summary.append(
                [
                    mu,
                    seed,
                    result.iterations,
                    result.final_objective,
                    result.status,
                ]
            )
    seeds_label = ",".join(str(s) for s in spec["seeds"])
    _write_csv(os.path.join(out, "sweep_mu.csv"), SWEEP_COLUMNS, _csv_lines(long_rows),
               spec, seeds_label)
    _write_csv(
        os.path.join(out, "sweep_summary.csv"),
        ("mu", "seed", "iterations", "final_objective", "status"),
        _csv_lines(summary),
        spec,
        seeds_label,
    )
    return 2 if failed else 0


def cmd_consensus(spec):
    kind = spec["kind"]
    if kind == "qp":
        raise UsageError("consensus runs on regression problems (ls or logistic)")
    mu_default = 1.0 if kind == "ls" else 1e-8
    solver_spec = dict(spec, mu=mu_default if spec.get("mu") is None else spec["mu"])

    def runs(seed):
        base = _build_problem(spec, seed)
        problem = split_regression(base, spec["nodes"], spec.get("ridge", 1e-2))
        x0 = np.zeros(problem.dim)
        config = _solver_config(solver_spec, "vmpg-dbb")
        return lambda mode: solve_consensus(problem, x0, mode=mode, config=config)

    return _grid(spec, spec["modes"], runs, TRACE_COLUMNS + ("bytes_exchanged",))


def cmd_gen(spec):
    seed = spec["seeds"][0]
    problem = _build_problem(spec, seed)
    path = spec["out"]
    if os.path.isdir(path) or path.endswith(os.sep):
        path = os.path.join(path, f"problem_{spec['kind']}_{seed}.npz")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if isinstance(problem, QPProblem):
        np.savez(
            path,
            kind="qp",
            Q=problem.Q,
            q=problem.q,
            p=problem.p,
            strong_convexity=problem.strong_convexity,
            smoothness=problem.smoothness,
            kappa=problem.kappa,
            seed=seed,
        )
    else:
        np.savez(
            path,
            kind=problem.loss,
            A=problem.A,
            b=problem.b,
            lam=problem.lam,
            x_star=problem.x_star if problem.x_star is not None else np.array([]),
            noise=problem.noise,
            seed=seed,
        )
    print(path)
    return 0


def _load_problem_file(path):
    try:
        data = np.load(path, allow_pickle=False)
    except OSError as err:
        raise UsageError(f"cannot read problem file {path}: {err}") from None
    kind = str(data["kind"])
    if kind == "qp":
        return (
            QPProblem(
                Q=data["Q"],
                q=data["q"],
                p=float(data["p"]),
                strong_convexity=float(data["strong_convexity"]),
                smoothness=float(data["smoothness"]),
                kappa=float(data["kappa"]),
                seed=int(data["seed"]),
            ),
            "qp",
        )
    x_star = data["x_star"]
    return (
        RegressionProblem(
            A=data["A"],
            b=data["b"],
            loss=kind,
            lam=float(data["lam"]),
            x_star=x_star if x_star.size else None,
            seed=int(data["seed"]),
            noise=float(data["noise"]),
        ),
        kind,
    )


def cmd_solve(spec):
    seed = spec["seeds"][0]
    method = spec["methods"][0]
    timing = spec.get("timing", "wall")
    if spec.get("problem_file"):
        problem, kind = _load_problem_file(spec["problem_file"])
        spec = dict(spec)
        spec["kind"] = kind
    else:
        problem = _build_problem(spec, seed)
    f = smooth_part(problem)
    g = _regularizer(spec, problem)
    config = _solver_config(spec, method)
    start = time.perf_counter()
    result = solve(f, g, np.zeros(f.dim), config)
    wall = 0.0 if timing == "none" else (time.perf_counter() - start) * 1e3
    _write_csv(
        os.path.join(spec["out"], f"trace_{method}_{seed}.csv"),
        TRACE_COLUMNS,
        _trace_lines(result.trace, timing),
        spec,
        seed,
    )
    print(
        f"{method} seed={seed} iterations={result.iterations} "
        f"objective={_fmt(result.final_objective)} status={result.status} "
        f"wall_ms={_fmt(wall)}"
    )
    return 0 if result.status == CONVERGED else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _add_common(sub):
    sub.add_argument("--config", help="INI config file; flags override it")
    sub.add_argument("--seed", help="comma-separated seed list, e.g. 0,1,2")
    sub.add_argument("--method", help="comma-separated method list")
    sub.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or ./vmpg-out)")
    sub.add_argument("--max-iter", type=int, dest="max_iter")
    sub.add_argument("--eps-tol", type=float, dest="eps_tol")
    sub.add_argument("--mu", type=float)
    sub.add_argument("--mls", type=int, dest="m_ls")
    sub.add_argument("--beta", type=float)
    sub.add_argument("--timing", choices=("wall", "none"), default=None,
                     help="'none' writes wall_ms as 0 for byte-reproducible output")
    sub.add_argument("--line-search", dest="line_search",
                     choices=("nonmonotone", "monotone", "off"), default=None)


def _add_problem_flags(sub):
    sub.add_argument("--kind", choices=KINDS)
    sub.add_argument("--n", type=int, help="problem dimension")
    sub.add_argument("--kappa", type=float, help="QP condition number")
    sub.add_argument("--n-samples", type=int, dest="n_samples",
                     help="regression sample count (default 0.2 * n)")
    sub.add_argument("--reg", choices=REGULARIZERS)
    sub.add_argument("--lam", type=float, help="regularizer weight")
    sub.add_argument("--lam2", type=float, help="elastic net quadratic weight")
    sub.add_argument("--noise", type=float)
    sub.add_argument("--data", help="CSV dataset instead of a generated instance")
    sub.add_argument("--label-column", dest="label_column",
                     help="label column (0-based index or header name)")


def build_parser():
    parser = _Parser(prog="vmpg", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"vmpg {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    bench = subs.add_parser("bench", help="method x seed benchmark grid")
    _add_common(bench)
    _add_problem_flags(bench)

    sweep = subs.add_parser("sweep-mu", help="sweep the diagonal BB weight mu")
    _add_common(sweep)
    _add_problem_flags(sweep)
    sweep.add_argument("--mus", help="comma-separated mu values")

    cons = subs.add_parser("consensus", help="multi-node consensus benchmark")
    _add_common(cons)
    _add_problem_flags(cons)
    cons.add_argument("--nodes", type=int, default=None)
    cons.add_argument("--mode", help=f"comma-separated modes from {MODES}")
    cons.add_argument("--ridge", type=float, help="l2^2 penalty folded into each node")

    gen = subs.add_parser("gen", help="emit a problem instance to an .npz file")
    _add_common(gen)
    _add_problem_flags(gen)

    slv = subs.add_parser("solve", help="single (problem, method, seed) run")
    _add_common(slv)
    _add_problem_flags(slv)
    slv.add_argument("--problem", dest="problem_file", help=".npz from `vmpg gen`")

    return parser


_CONFIG_KEYS = {
    "kind": str,
    "n": int,
    "kappa": float,
    "n_samples": int,
    "reg": str,
    "lam": float,
    "lam2": float,
    "noise": float,
    "data": str,
    "label_column": str,
    "methods": str,
    "seeds": str,
    "out": str,
    "max_iter": int,
    "eps_tol": float,
    "mu": float,
    "m_ls": int,
    "beta": float,
    "delta": float,
    "timing": str,
    "line_search": str,
    "mus": str,
    "nodes": int,
    "modes": str,
    "ridge": float,
}

# Flags and INI keys that name one item but may list several.
_SPEC_KEYS = {"seed": "seeds", "method": "methods", "mode": "modes"}


def _read_config_file(path):
    parser = ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"cannot read config file {path}")
    merged = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            key = key.replace("-", "_")
            key = _SPEC_KEYS.get(key, key)
            if key not in _CONFIG_KEYS:
                raise UsageError(f"{path}: unknown config key {key!r} in [{section}]")
            caster = _CONFIG_KEYS[key]
            try:
                merged[key] = caster(raw)
            except ValueError:
                raise UsageError(
                    f"{path}: bad value {raw!r} for {key} in [{section}]"
                ) from None
    return merged


def _assemble_spec(args):
    spec = {}
    if getattr(args, "config", None):
        spec.update(_read_config_file(args.config))
    for attr, val in vars(args).items():
        if val is not None and attr not in ("command", "config"):
            spec[_SPEC_KEYS.get(attr, attr)] = val

    spec["seeds"] = _parse_int_list(spec.get("seeds", "0"), "--seed")
    if not spec["seeds"]:
        raise UsageError("--seed list is empty")
    methods = str(spec.get("methods", "vmpg-dbb,pg-bb"))
    spec["methods"] = [m.strip() for m in methods.split(",") if m.strip()]
    for m in spec["methods"]:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}; choose from {METHODS}")
    if "mus" in spec:
        spec["mus"] = _parse_float_list(spec["mus"], "--mus")
    modes = str(spec.get("modes", "local-dbb"))
    spec["modes"] = [m.strip() for m in modes.split(",") if m.strip()]
    for m in spec["modes"]:
        if m not in MODES:
            raise UsageError(f"unknown consensus mode {m!r}; choose from {MODES}")

    spec.setdefault("kind", "qp")
    if spec["kind"] not in KINDS:
        raise UsageError(f"unknown kind {spec['kind']!r}; choose from {KINDS}")
    spec.setdefault("reg", "nonneg" if spec["kind"] == "qp" else "lasso")
    spec.setdefault("n", 200)
    if spec["kind"] == "qp":
        spec.setdefault("kappa", 1e4)
        if spec["kappa"] < 1:
            raise UsageError("--kappa must be >= 1")
    spec.setdefault("nodes", 10)
    if spec["nodes"] < 1:
        raise UsageError("--nodes must be >= 1")
    if "out" not in spec:
        env_out = os.environ.get(ENV_OUT_DIR)
        if args.command == "gen" and not env_out:
            raise UsageError(f"gen needs --out or ${ENV_OUT_DIR}")
        spec["out"] = env_out or "vmpg-out"
    if spec.get("label_column") is not None:
        raw = str(spec["label_column"])
        spec["label_column"] = int(raw) if raw.lstrip("-").isdigit() else raw
    return spec


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "bench": cmd_bench,
        "sweep-mu": cmd_sweep_mu,
        "consensus": cmd_consensus,
        "gen": cmd_gen,
        "solve": cmd_solve,
    }
    try:
        spec = _assemble_spec(args)
        return commands[args.command](spec)
    except UsageError as err:
        print(f"vmpg: error: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(f"vmpg: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
