"""Bitwise fingerprints of arrays, trace records and solve results.

Two runs that agree bit for bit have equal digests; comparing digests rather
than values catches last-bit drift that np.allclose would forgive.
``battery`` digests a fixed set of runs that reaches every method, mode and
regularizer on the hot path, so that two implementations of that path can
be compared run by run.
"""

import dataclasses
import itertools

import numpy as np

from vmpg.consensus import MODES, solve_consensus, split_regression
from vmpg.problems import generate_qp, generate_regression, smooth_part
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


def battery(seed=0, max_iter=60):
    """{run name: digest} over a fixed run set, from instances of this seed.

    solve: QP, LS and logistic x Zero, Nonnegative, Lasso, ElasticNet x the
    4 methods x 3 line-search modes x max_backtracks {60, 0} x both stop
    rules; a run whose config the method rejects (pg-fixed or FISTA without
    a stepsize on logistic) is digested as its error's type name.
    solve_consensus: LS and logistic splits over {1, 3, 7} nodes x the 4
    modes x 3 line-search modes x both stop rules.  eps_tol is 1e-8, so most
    runs reach max_iter or a failure status.
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
    for loss, nodes in itertools.product(("ls", "logistic"), (1, 3, 7)):
        problem = split_regression(generate_regression(70, 6, loss, seed), nodes, 1e-2)
        for mode, ls_mode, stop in itertools.product(MODES, LINE_SEARCH_MODES, STOP_RULES):
            config = SolverConfig(line_search=ls_mode, stop_rule=stop, eps_tol=1e-8,
                                  max_iter=max_iter)
            out["consensus", loss, nodes, mode, ls_mode, stop] = digest(
                solve_consensus(problem, np.zeros(problem.dim), mode, config))
    return out
