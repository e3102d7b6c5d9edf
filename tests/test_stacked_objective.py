"""The one-pass least-squares stack behind ConsensusProblem.stacked().

When every node is a plain LeastSquaresObjective, ``stacked()`` returns
``_StackedLeastSquares``, which evaluates all nodes in one pass; any other
node set keeps the per-node loop ``_Stacked``.  The two must agree bit for
bit, point by point and over whole consensus solves.
"""

import numpy as np
import pytest

from vmpg.consensus import (
    MODES,
    ConsensusProblem,
    _Stacked,
    _StackedLeastSquares,
    solve_consensus,
    split_regression,
)
from vmpg.problems import (
    LeastSquaresObjective,
    LogisticObjective,
    QuadraticObjective,
    generate_regression,
)
from vmpg.solver import SolverConfig

from digests import bits, digest


def shards(n_samples, dim, nodes, ridge, loss="ls", seed=3):
    return split_regression(generate_regression(n_samples, dim, loss, seed), nodes, ridge)


def loop_of(problem):
    return _Stacked(problem.objectives, problem.dim)


def wrap_node_methods(problem):
    """Replace value and gradient on every node instance with a wrapper."""
    for f in problem.objectives:
        for name in ("value", "gradient"):
            method = getattr(f, name)
            setattr(f, name, lambda x, _method=method: _method(x))
    return problem


# (n_samples, dim, nodes, ridge): many nodes, one node, one or two rows per
# node, and no ridge term
SHAPES = {
    "20-nodes": (400, 10, 20, 1e-2),
    "1-node": (60, 6, 1, 1e-2),
    "1-row-shards": (12, 3, 12, 1e-2),
    "tiny-shards": (13, 3, 12, 1e-2),
    "ridge-0": (60, 6, 3, 0.0),
}


class TestBitwiseEqualToTheLoop:
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    @pytest.mark.parametrize("gradient_first", [False, True])
    def test_value_and_gradient_in_either_order(self, shape, gradient_first):
        problem = shards(*shape)
        f = problem.stacked()
        assert type(f) is _StackedLeastSquares
        loop = loop_of(problem)
        rng = np.random.default_rng(0)
        for scale in (1e-3, 1.0, 1e3):
            x = scale * rng.standard_normal(f.dim)
            if gradient_first:
                grad, value = f.gradient(x), f.value(x)
            else:
                value, grad = f.value(x), f.gradient(x)
            assert bits(value) == bits(loop.value(x))
            assert bits(grad) == bits(loop.gradient(x))
            assert bits(f.value(x)) == bits(value)  # a memo hit changes nothing

    def test_a_point_changed_in_place_is_recomputed(self):
        problem = shards(*SHAPES["20-nodes"])
        f, loop = problem.stacked(), loop_of(problem)
        x = np.random.default_rng(1).standard_normal(f.dim)
        first = (f.value(x), f.gradient(x))
        x[7] += 0.5
        assert bits(f.value(x)) == bits(loop.value(x))
        assert bits(f.gradient(x)) == bits(loop.gradient(x))
        assert bits(f.value(x)) != bits(first[0])
        x[7] -= 0.5
        assert bits(f.gradient(x)) == bits(first[1])
        assert bits(f.value(x)) == bits(first[0])

    def test_designs_that_are_not_row_major(self):
        rng = np.random.default_rng(2)
        big = rng.standard_normal((200, 24))
        nodes = [
            LeastSquaresObjective(np.asfortranarray(big[:50, :6]), rng.standard_normal(50),
                                  ridge=0.1),
            LeastSquaresObjective(big[50:150:2, :12:2], rng.standard_normal(50)),
            LeastSquaresObjective(big[150:170, 6:12], rng.standard_normal(40)[::2],
                                  scale=0.3),
        ]
        problem = ConsensusProblem(nodes, 6)
        f, loop = problem.stacked(), loop_of(problem)
        assert type(f) is _StackedLeastSquares
        for _ in range(5):
            x = rng.standard_normal(f.dim)
            assert bits(f.value(x)) == bits(loop.value(x))
            assert bits(f.gradient(x)) == bits(loop.gradient(x))


def _quadratic(dim, c):
    return QuadraticObjective(c * np.eye(dim), np.ones(dim), 0.0)


def _problem_of(kind):
    if kind == "logistic":
        return shards(60, 4, 3, 1e-2, loss="logistic")
    problem = shards(60, 4, 3, 1e-2)
    if kind == "quadratic":
        return ConsensusProblem([_quadratic(4, c) for c in (1.0, 2.0, 3.0)], 4)
    if kind == "mixed":
        return ConsensusProblem(problem.objectives[:2] + [_quadratic(4, 1.0)], 4)
    if kind == "subclass":
        cls = type("Subclass", (LeastSquaresObjective,), {})
        return ConsensusProblem([cls(f.A, f.b, f.scale, f.ridge) for f in problem.objectives],
                                4)
    f = problem.objectives[1]
    setattr(f, kind, lambda x, _method=getattr(f, kind): _method(x))
    return problem


class TestWhichPath:
    @pytest.mark.parametrize(
        "kind", ["logistic", "quadratic", "mixed", "subclass", "value", "gradient"]
    )
    def test_other_node_sets_keep_the_loop(self, kind):
        problem = _problem_of(kind)
        f = problem.stacked()
        assert type(f) is _Stacked
        x = np.linspace(-1.0, 1.0, f.dim)
        parts = problem.objectives
        assert f.value(x) == sum(p.value(x[4 * j:4 * j + 4]) for j, p in enumerate(parts))

    def test_the_stack_is_built_once_per_problem(self):
        problem = shards(60, 4, 3, 1e-2)
        assert problem.stacked() is problem.stacked()
        assert shards(60, 4, 3, 1e-2).stacked() is not problem.stacked()

    def test_patching_a_node_switches_to_the_loop_and_back(self):
        problem = shards(60, 4, 3, 1e-2)
        batched = problem.stacked()
        f = problem.objectives[0]
        f.gradient = lambda x, _method=f.gradient: _method(x)
        assert type(problem.stacked()) is _Stacked
        del f.gradient
        assert problem.stacked() is batched

    def test_replacing_a_node_rebuilds_the_stack(self):
        problem = shards(60, 4, 3, 1e-2)
        batched = problem.stacked()
        f = problem.objectives[2]
        problem.objectives[2] = LeastSquaresObjective(f.A, f.b + 1.0, f.scale, f.ridge)
        rebuilt = problem.stacked()
        assert rebuilt is not batched and type(rebuilt) is _StackedLeastSquares
        x = np.ones(rebuilt.dim)
        assert bits(rebuilt.value(x)) == bits(loop_of(problem).value(x))

    def test_the_problem_compares_and_prints_by_its_fields(self):
        problem = shards(60, 4, 3, 1e-2)
        before = repr(problem)
        problem.stacked()
        assert repr(problem) == before
        assert problem == ConsensusProblem(problem.objectives, problem.dim)


class TestSolvesMatchTheLoop:
    @pytest.mark.parametrize("mode", MODES)
    def test_every_line_search_mode_and_stop_rule(self, mode):
        """Status, iterations, z bytes and trace fields equal those of the loop."""
        backtracks = 0
        for ls_mode in ("nonmonotone", "monotone", "off"):
            for stop_rule in ("forward-step", "grad-map"):
                config = SolverConfig(mu=1.0, line_search=ls_mode, stop_rule=stop_rule,
                                      eps_tol=1e-9, max_iter=120)
                batched = shards(200, 8, 5, 1e-2)
                looped = wrap_node_methods(shards(200, 8, 5, 1e-2))
                assert type(batched.stacked()) is _StackedLeastSquares
                assert type(looped.stacked()) is _Stacked
                run = solve_consensus(batched, np.zeros(8), mode, config)
                ref = solve_consensus(looped, np.zeros(8), mode, config)
                assert digest(run) == digest(ref)
                backtracks += sum(r.backtracks for r in run.trace)
        assert backtracks > 0  # rejected candidates are covered too
