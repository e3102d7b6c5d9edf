"""Bitwise fingerprints of arrays, trace records and solve results.

Two runs that agree bit for bit have equal digests; comparing digests rather
than values catches last-bit drift that np.allclose would forgive.
``battery`` digests a fixed set of runs that reaches every method, mode and
regularizer on the hot path, so that two implementations of that path can
be compared run by run.

Run as a script, it writes the battery as JSON, one run per line, so that
two checkouts can be compared with diff:

    python tests/digests.py OUT.json [--seed 0] [--max-iter 60]

The script imports vmpg from the src/ next to it.
"""

import argparse
import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from vmpg.consensus import MODES, solve_consensus, split_regression
from vmpg.problems import _least_squares, generate_qp, generate_regression, smooth_part
from vmpg.prox import ElasticNet, Lasso, Nonnegative, Zero
from vmpg.solver import LINE_SEARCH_MODES, METHODS, STOP_RULES, SolverConfig, solve


def bits(a):
    """The bytes of a as a float64 array."""
    return np.asarray(a, dtype=float).tobytes()


def record_digest(record, drop=()):
    """Every trace field but wall_ms and those in drop, floats as bytes."""
    fields = dataclasses.asdict(record)
    for name in ("wall_ms", *drop):
        del fields[name]
    return {k: bits(v) if isinstance(v, float) else v for k, v in fields.items()}


def digest(result, drop=()):
    """(status, iterations, point bytes, final-objective bits, record digests).

    The point is a SolveResult's x or a ConsensusResult's z.
    """
    point = result.z if hasattr(result, "z") else result.x
    return (result.status, result.iterations, bits(point), bits(result.final_objective),
            [record_digest(r, drop) for r in result.trace])


REGULARIZERS = {
    "zero": Zero,
    "nonneg": Nonnegative,
    "lasso": lambda: Lasso(0.05),
    "elastic-net": lambda: ElasticNet(0.05, 0.02),
}


def _smooth(kind, seed):
    if kind == "qp":
        return smooth_part(generate_qp(20, 1e3, seed))
    return smooth_part(generate_regression(60, 10, kind, seed))


def _gram_least_squares(seed, ridge):
    """(1/N)||Ax - b||^2 + ridge ||x||^2 over a 2048 x 64 i.i.d. Gaussian
    design, in its Gram form: conditioned well enough that its
    strong-convexity certificates end the runs within a few dozen records."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2048, 64))
    b = A @ rng.standard_normal(64) + 0.5 * rng.standard_normal(2048)
    return _least_squares(A, b, ridge=ridge)


# name: (ridge, regularizer) of the Gram-form runs
GRAM_RUNS = {
    "zero-ridge": (1e-2, Zero),
    "zero": (0.0, Zero),
    "lasso": (0.0, lambda: Lasso(0.05)),
}


def battery(seed=0, max_iter=60):
    """{run name: digest} over a fixed run set, from instances of this seed.

    solve: QP, LS and logistic x Zero, Nonnegative, Lasso, ElasticNet x the
    4 methods x 3 line-search modes x max_backtracks {60, 0} x both stop
    rules; a run whose config the method rejects is digested as its error's
    type name.
    solve_consensus: LS and logistic splits over {1, 3, 7} nodes x the 4
    modes x 3 line-search modes x both stop rules, each on three node sets:
    ridge 1e-2, ridge 1e-2 with the nodes' moduli withheld, and ridge 0.
    eps_tol is 1e-8.  With the moduli every run converges in 5 to 24 rounds
    at seed 0: by its stop rule, or else at the first round where the
    consensus certificate holds (on one node, the first multiple of 8
    where it holds).  Without them no certificate is formed and each
    run takes the path it took before consensus solves had one, so the long
    runs, those cut at max_iter (most of them at ridge 0) and the
    line-search failures stay compared.
    Gram form: a well-conditioned least squares (_gram_least_squares) under
    Zero with ridge 1e-2, Zero without a ridge, and Lasso, x vmpg-dbb,
    pg-bb, pg-fixed x 3 line-search modes, at eps_tol 1e-12 so that the
    forward-step test seldom comes first.  At seed 0, 23 of these 27 runs
    end by their certificate at record 16, 24 or 32 (the other four, under
    monotone line search, by the forward-step test): under Zero by
    ||grad f||^2 / (2m) with m read off the Gram spectrum, and under Lasso
    by the second-order bound, at a record where the dual gap is still
    above its rounding.
    """
    out = {}
    for kind, reg, method, ls_mode, backtracks, stop in itertools.product(
        ("qp", "ls", "logistic"), REGULARIZERS, METHODS, LINE_SEARCH_MODES,
        (60, 0), STOP_RULES,
    ):
        f = _smooth(kind, seed)
        config = SolverConfig(method=method, line_search=ls_mode, stop_rule=stop,
                              max_backtracks=backtracks, eps_tol=1e-8,
                              max_iter=max_iter)
        try:
            result = digest(solve(f, REGULARIZERS[reg](), np.zeros(f.dim), config))
        except ValueError as err:
            result = type(err).__name__
        out[kind, reg, method, ls_mode, backtracks, stop] = result
    for name, method, ls_mode in itertools.product(
        GRAM_RUNS, ("vmpg-dbb", "pg-bb", "pg-fixed"), LINE_SEARCH_MODES,
    ):
        ridge, reg = GRAM_RUNS[name]
        f = _gram_least_squares(seed, ridge)
        config = SolverConfig(method=method, line_search=ls_mode, eps_tol=1e-12,
                              max_iter=max_iter)
        out["gram-ls", name, method, ls_mode] = digest(solve(f, reg(), np.zeros(64), config))
    for loss, nodes, (ridge, moduli) in itertools.product(
        ("ls", "logistic"), (1, 3, 7), ((1e-2, True), (1e-2, False), (0.0, False)),
    ):
        problem = split_regression(generate_regression(70, 6, loss, seed), nodes, ridge)
        if not moduli:
            for f in problem.objectives:
                f.strong_convexity = None
        for mode, ls_mode, stop in itertools.product(MODES, LINE_SEARCH_MODES, STOP_RULES):
            config = SolverConfig(line_search=ls_mode, stop_rule=stop, eps_tol=1e-8,
                                  max_iter=max_iter)
            out["consensus", loss, nodes, ridge, moduli, mode, ls_mode, stop] = digest(
                solve_consensus(problem, np.zeros(problem.dim), mode, config))
    return out


def summary(entry):
    """A battery entry as one line: status, iterations and a hash of its
    whole digest, or the name of the error its config raised."""
    if isinstance(entry, str):
        return entry
    status, iterations = entry[:2]
    return f"{status} {iterations} {hashlib.sha256(repr(entry).encode()).hexdigest()[:16]}"


def main(argv=None):
    parser = argparse.ArgumentParser(description="Write the digest battery as JSON.")
    parser.add_argument("out", help="the JSON file to write")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iter", type=int, default=60)
    args = parser.parse_args(argv)
    runs = {"/".join(map(str, key)): summary(entry)
            for key, entry in battery(args.seed, args.max_iter).items()}
    with open(args.out, "w") as fh:
        json.dump(runs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(runs)} runs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
