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
import dataclasses
import hashlib
import json
import os
import statistics
import sys
import time
import zipfile
from configparser import ConfigParser

import numpy as np

from . import __version__
from .consensus import MODES, solve_consensus, split_regression
from .problems import (
    QPProblem,
    RegressionProblem,
    _default_lam,
    generate_qp,
    generate_regression,
    load_csv,
    smooth_part,
)
from .prox import ElasticNet, Lasso, Nonnegative, Zero
from .solver import CONVERGED, LINE_SEARCH_MODES, METHODS, SolverConfig, solve

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
# the flags that build an instance, which a problem file replaces
GENERATOR_FLAGS = ("--kind", "--n", "--kappa", "--n-samples", "--noise", "--data",
                   "--label-column")


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


def _parse_list(text, flag, cast=str):
    """A comma-separated list, each item stripped and cast; empty items dropped."""
    try:
        return [cast(tok.strip()) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise UsageError(
            f"{flag} expects a comma-separated list of {cast.__name__} values, got {text!r}"
        ) from None


def _default_eps(kind):
    return 1e-2 if kind == "logistic" else 1e-4


def _default_reg(kind):
    return "nonneg" if kind == "qp" else "lasso"


def _build_problem(spec, seed):
    kind = spec["kind"]
    if spec.get("data") is not None:
        if kind == "qp":
            raise UsageError("--data loads a regression dataset; it needs --kind ls|logistic")
        return load_csv(
            spec["data"], spec.get("label_column", 0), loss=kind, lam=spec.get("lam")
        )
    n = spec["n"]
    if kind == "qp":
        return generate_qp(n, spec["kappa"], seed)
    n_samples = spec.get("n_samples")
    if n_samples is None:
        n_samples = max(2, int(round(0.2 * n)))
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
        lam2 = spec.get("lam2")
        return ElasticNet(lam, lam if lam2 is None else lam2)
    raise UsageError(f"unknown regularizer {reg!r}; choose from {REGULARIZERS}")


def _solver_config(spec, method):
    """SolverConfig from every spec setting that names one of its fields."""
    kwargs = {
        field.name: spec[field.name]
        for field in dataclasses.fields(SolverConfig)
        if spec.get(field.name) is not None
    }
    kwargs.setdefault("eps_tol", _default_eps(spec["kind"]))
    kwargs.setdefault("max_iter", 5000)
    kwargs["method"] = method
    return SolverConfig(**kwargs)


def _summary_rows(records, per_variant):
    """A row per run record, then an aggregate row per variant."""
    rows = [[r[c] for c in SUMMARY_COLUMNS[:6]] + ["", ""] for r in records]
    for variant, runs in per_variant.items():
        iters = [r["iterations"] for r in runs]
        ok = all(r["status"] == CONVERGED for r in runs)
        rows.append([variant, "aggregate", statistics.median(iters),
                     statistics.median([r["wall_ms"] for r in runs]),
                     statistics.median([r["final_objective"] for r in runs]),
                     "converged" if ok else "failed",
                     statistics.mean(iters), statistics.pstdev(iters)])
    return rows


def _run_cell(spec, run, variant, seed, columns):
    """Time run(variant), write its trace CSV and return its summary record."""
    timing = spec.get("timing", "wall")
    start = time.perf_counter()
    result = run(variant)
    wall = 0.0 if timing == "none" else (time.perf_counter() - start) * 1e3
    _write_csv(
        os.path.join(spec["out"], f"trace_{variant}_{seed}.csv"),
        columns,
        _trace_lines(result.trace, timing),
        spec,
        seed,
    )
    return {
        "method": variant,
        "seed": seed,
        "iterations": result.iterations,
        "wall_ms": wall,
        "final_objective": result.final_objective,
        "status": result.status,
    }


def _grid(spec, variants, runs, columns):
    """Solve every (seed, variant) cell; write its trace and summary.csv.

    runs(seed) builds the seed's problem and returns a function that solves
    it for one variant (a method or a consensus mode).
    """
    records = []
    per_variant = {v: [] for v in variants}
    for seed in spec["seeds"]:
        run = runs(seed)
        for variant in variants:
            record = _run_cell(spec, run, variant, seed, columns)
            records.append(record)
            per_variant[variant].append(record)
    _write_csv(
        os.path.join(spec["out"], "summary.csv"),
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
    mus = spec.get("mus")
    if mus is None:
        mus = [1e-8, 1e-2, 1e-1, 1.0]
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
    elif not path.endswith(".npz"):
        path += ".npz"  # as np.savez would, so that the path printed is the file written
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    values = {field.name: getattr(problem, field.name) for field in dataclasses.fields(problem)}
    np.savez(path, kind=spec["kind"], **{k: v for k, v in values.items() if v is not None})
    print(path)
    return 0


def _load_problem_file(path):
    """The problem a `gen` file holds, and its kind.

    The file's arrays are ``kind`` and the fields of the kind's problem
    dataclass; a field with a default may be missing.  Files of the first
    format load too: they stored a regression problem's loss only as its
    kind, and a missing planted vector as an empty array.
    """
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with data:
            arrays = {name: data[name] for name in data.files}
    except (OSError, ValueError, zipfile.BadZipFile) as err:
        raise UsageError(f"cannot read problem file {path}: {err}") from None
    if "kind" not in arrays:
        raise UsageError(f"problem file {path} has no 'kind' array")
    kind = str(arrays["kind"])
    if kind not in KINDS:
        raise UsageError(f"problem file {path} has unknown kind {kind!r}; choose from {KINDS}")
    cls = QPProblem if kind == "qp" else RegressionProblem
    values = {}
    for field in dataclasses.fields(cls):
        value = arrays.get(field.name)
        if field.type is str:  # a problem's one string field is its kind
            if value is not None and str(value) != kind:
                raise UsageError(f"problem file {path} has kind {kind!r} but "
                                 f"{field.name} {str(value)!r}")
            values[field.name] = kind
        elif value is None:
            if field.default is dataclasses.MISSING is field.default_factory:
                raise UsageError(f"problem file {path} has no {field.name!r} array")
        elif value.ndim == 0:
            values[field.name] = value.item()
        elif value.size == 0 and field.default is None:
            values[field.name] = None
        else:
            values[field.name] = value.tolist() if field.type is list else value
    problem = cls(**values)
    if kind == "qp":
        _check_modulus(problem, path)
    return problem, kind


def _check_modulus(problem, path):
    """Reject a QP file whose strong_convexity m is above the least
    eigenvalue of its Q, beyond that eigenvalue's rounding: solve ends a
    --reg none run once ||grad f||^2 / (2m) certifies it, and an overstated
    m would certify a point that is not optimal."""
    m, Q = problem.strong_convexity, np.asarray(problem.Q, dtype=float)
    if m is not None and not isinstance(m, (int, float)):
        raise UsageError(f"problem file {path} has strong_convexity {m!r}; need a number")
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or not np.isfinite(Q).all():
        return  # the objective rejects a malformed Q, and a NaN has no m
    eig = np.linalg.eigvalsh(Q)
    if m is not None and m > eig[0] + 16 * Q.shape[0] * np.finfo(float).eps * np.abs(eig).max():
        raise UsageError(f"problem file {path} declares strong_convexity {m!r}, above "
                         f"the least eigenvalue {eig[0]!r} of its Q")


def cmd_solve(spec):
    seed = spec["seeds"][0]
    method = spec["methods"][0]
    if spec.get("problem_file"):
        problem, kind = _load_problem_file(spec["problem_file"])
        spec = dict(spec, kind=kind)
        spec.setdefault("reg", _default_reg(kind))
    else:
        problem = _build_problem(spec, seed)
    f = smooth_part(problem)
    g = _regularizer(spec, problem)
    config = _solver_config(spec, method)
    x0 = np.zeros(f.dim)
    record = _run_cell(spec, lambda _: solve(f, g, x0, config), method, seed, TRACE_COLUMNS)
    print(
        f"{method} seed={seed} iterations={record['iterations']} "
        f"objective={_fmt(record['final_objective'])} status={record['status']} "
        f"wall_ms={_fmt(record['wall_ms'])}"
    )
    return 0 if record["status"] == CONVERGED else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _shared_flags(omit=()):
    """A parent parser holding the flags that subcommands share, but omit.

    A subcommand that would ignore a flag is built without it, so passing
    one is a usage error.
    """
    shared = argparse.ArgumentParser(add_help=False)

    def add(flag, **kwargs):
        if flag not in omit:
            shared.add_argument(flag, **kwargs)
    add("--config", help="INI config file; flags override it")
    add("--seed", dest="seeds", metavar="SEED", help="comma-separated seed list, e.g. 0,1,2")
    add("--method", dest="methods", metavar="METHOD", help="comma-separated method list")
    add("--out", help=f"output directory (default ${ENV_OUT_DIR} or ./vmpg-out)")
    add("--max-iter", type=int)
    add("--eps-tol", type=float)
    add("--mu", type=float)
    add("--delta", type=float)
    add("--mls", type=int, dest="m_ls")
    add("--beta", type=float)
    add("--timing", choices=("wall", "none"),
        help="'none' writes wall_ms as 0 for byte-reproducible output")
    add("--line-search", choices=LINE_SEARCH_MODES)
    add("--kind", choices=KINDS)
    add("--n", type=int, help="problem dimension")
    add("--kappa", type=float, help="QP condition number")
    add("--n-samples", type=int, help="regression sample count (default 0.2 * n)")
    add("--reg", choices=REGULARIZERS)
    add("--lam", type=float, help="regularizer weight")
    add("--lam2", type=float, help="elastic net quadratic weight")
    add("--noise", type=float)
    add("--data", help="CSV dataset instead of a generated instance")
    add("--label-column", help="label column (0-based index or header name)")
    return shared


def build_parser():
    parser = _Parser(prog="vmpg", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"vmpg {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    shared = [_shared_flags()]

    subs.add_parser("bench", parents=shared, help="method x seed benchmark grid")

    # sweep-mu always runs vmpg-dbb over --mus, and would read --mu as an
    # abbreviation of it; consensus solves the smooth problem with vmpg-dbb
    # settings in each --mode; gen stores --lam with the instance
    sweep = subs.add_parser("sweep-mu", parents=[_shared_flags(omit=("--method", "--mu"))],
                            allow_abbrev=False, help="sweep the diagonal BB weight mu")
    sweep.add_argument("--mus", help="comma-separated mu values")

    cons = subs.add_parser(
        "consensus", parents=[_shared_flags(omit=("--method", "--reg", "--lam", "--lam2"))],
        help="multi-node consensus benchmark")
    cons.add_argument("--nodes", type=int)
    cons.add_argument("--mode", dest="modes", metavar="MODE",
                      help=f"comma-separated modes from {MODES}")
    cons.add_argument("--ridge", type=float, help="l2^2 penalty folded into each node")

    gen_omits = ("--method", "--max-iter", "--eps-tol", "--mu", "--delta", "--mls", "--beta",
                 "--timing", "--line-search", "--reg", "--lam2")
    subs.add_parser("gen", parents=[_shared_flags(omit=gen_omits)],
                    help="emit a problem instance to an .npz file")

    slv = subs.add_parser("solve", parents=shared, help="single (problem, method, seed) run")
    slv.add_argument("--problem", dest="problem_file", help=".npz from `vmpg gen`")

    return parser


def _config_keys(parser):
    """INI key -> the action it sets, over the flags of every subcommand.

    A flag is keyed by its name and by its dest, dashes read as underscores.
    """
    keys = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                keys.update(_config_keys(sub))
        elif action.dest not in ("help", "version", "config"):
            for name in action.option_strings + [action.dest]:
                keys[name.lstrip("-").replace("-", "_")] = action
    return keys


def _read_config_file(path):
    """The settings of an INI file, cast and checked as their flags are."""
    parser = ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"cannot read config file {path}")
    keys = _config_keys(build_parser())
    merged = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            action = keys.get(key.replace("-", "_"))
            if action is None:
                raise UsageError(f"{path}: unknown config key {key!r} in [{section}]")
            try:
                value = (action.type or str)(raw)
                if action.choices is not None and value not in action.choices:
                    raise ValueError
            except ValueError:
                raise UsageError(
                    f"{path}: bad value {raw!r} for {key} in [{section}]"
                ) from None
            merged[action.dest] = value
    return merged


def _assemble_spec(args):
    spec = {}
    if args.config:
        spec.update(_read_config_file(args.config))
    for attr, val in vars(args).items():
        if val is not None and attr not in ("command", "config"):
            spec[attr] = val

    spec["seeds"] = _parse_list(spec.get("seeds", "0"), "--seed", int)
    if not spec["seeds"]:
        raise UsageError("--seed list is empty")
    spec["methods"] = _parse_list(spec.get("methods", "vmpg-dbb,pg-bb"), "--method")
    for m in spec["methods"]:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}; choose from {METHODS}")
    if "mus" in spec:
        spec["mus"] = _parse_list(spec["mus"], "--mus", float)
    spec["modes"] = _parse_list(spec.get("modes", "local-dbb"), "--mode")
    for m in spec["modes"]:
        if m not in MODES:
            raise UsageError(f"unknown consensus mode {m!r}; choose from {MODES}")
    # a list is checked only by the subcommand that reads it, so one INI file
    # can serve every subcommand
    for key, flag, readers in (("methods", "--method", ("bench", "solve")),
                               ("modes", "--mode", ("consensus",)),
                               ("mus", "--mus", ("sweep-mu",))):
        if args.command in readers and spec.get(key) == []:
            raise UsageError(f"{flag} list is empty")

    if args.command == "solve" and spec.get("problem_file"):
        for flag in GENERATOR_FLAGS:
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                raise UsageError(f"{flag} builds an instance; --problem reads one from "
                                 "its file and would ignore it")
    spec.setdefault("kind", "qp")
    if args.command != "solve" or not spec.get("problem_file"):
        spec.setdefault("reg", _default_reg(spec["kind"]))  # else by the file's kind
    spec.setdefault("n", 200)
    if spec["kind"] == "qp":
        spec.setdefault("kappa", 1e4)
        if spec["kappa"] < 1:
            raise UsageError("--kappa must be >= 1")
    spec.setdefault("nodes", 10)
    if spec["nodes"] < 1:
        raise UsageError("--nodes must be >= 1")
    if spec.get("n_samples", 1) < 1:
        raise UsageError("--n-samples must be >= 1")
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
    except (OSError, ValueError) as err:  # UsageError is a ValueError
        print(f"vmpg: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
