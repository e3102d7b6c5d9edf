"""The hot path against the implementation it replaced, bit for bit.

The functions below are the per-iteration code as it stood before it was
trimmed to fewer and cheaper numpy calls: ``line_search``, ``_advance``,
``vmpg_step``, ``_fista_step``, the BB rules, the trusted metric
constructors, ``QuadraticObjective.value``, ``Consensus.prox`` and the
one-pass ``_StackedLeastSquares._image_of``.  ``reference_path`` installs
them in place of the current ones; the digest battery must not tell the two
apart.

A second generation of references keeps the consensus round as it stood
before the node pass kept its own buffers and a solve built its stacked
objective, prox and byte count once: ``allocating_image_of``,
``rebuilding_round`` and ``rebuilding_solve``.  They are compared with the
current code on a consensus problem shaped like the benchmark's.
"""

import itertools
import math

import numpy as np
import pytest

import vmpg.consensus
import vmpg.solver
import vmpg.stepsize
from vmpg.consensus import (
    MODES,
    ConsensusProblem,
    ConsensusResult,
    ConsensusTraceRecord,
    _Stacked,
    _StackedLeastSquares,
    solve_consensus,
    split_regression,
)
from vmpg.core import METRIC_FLOOR, DiagonalMetric, NumericalError
from vmpg.problems import LeastSquaresObjective, QuadraticObjective, generate_regression
from vmpg.prox import Consensus
from vmpg.solver import (
    LINE_SEARCH_MODES,
    FistaState,
    LineSearchError,
    SolverConfig,
    SolverState,
    TraceRecord,
    _advance,
    _duality_gap,
    _g_at_prox,
    _iterate,
    _reference_value,
    _resolve_fixed_stepsize,
    _warmup,
)
from vmpg.stepsize import StepPair, StepsizeState, _guard_pair

from digests import battery, bits, digest

# Runs that diverge without backtracking overflow before they end in
# numerical-failure, and some BB pairs divide by zero on purpose.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def reference_norm(v):
    return math.sqrt(float(np.dot(v, v)))


def reference_line_search(f, g, x, grad, metric, f_ref, config):
    backtracks = 0
    while True:
        y = x - grad / metric.diag
        x_new = g.prox(y, metric)
        f_new = f.value(x_new) + _g_at_prox(g, x_new)
        if math.isnan(f_new):
            raise NumericalError("NaN objective at the candidate point")
        if f_ref is None:
            return x_new, y, metric, backtracks, f_new
        decrease = 0.5 * metric.norm(x_new - x) ** 2
        if f_new <= f_ref - decrease:
            return x_new, y, metric, backtracks, f_new
        if backtracks >= config.max_backtracks:
            raise LineSearchError(
                iteration=None,
                backtracks=backtracks,
                candidate_value=f_new,
                reference=f_ref - decrease,
                u_max=metric.u_max,
            )
        metric = metric._scaled(config.beta)
        backtracks += 1


def reference_advance(f, g, state, metric, alpha, f_ref, config):
    try:
        x_new, y_new, metric, backtracks, f_new = vmpg.solver.line_search(
            f, g, state.x, state.grad, metric, f_ref, config
        )
    except LineSearchError as err:
        err.iteration = state.iteration
        raise

    diff = x_new - state.x
    mapping = metric.apply(-diff)
    record = TraceRecord(
        iter=state.iteration,
        objective=f_new,
        grad_map_norm=math.sqrt(np.dot(mapping**2, 1.0 / metric.diag)),
        step_norm_u=metric.norm(diff),
        backtracks=backtracks,
        u_min=metric.u_min,
        u_max=metric.u_max,
        wall_ms=0.0,
    )
    history = state.f_history + [f_new]
    if len(history) > config.m_ls + 1:
        history = history[-(config.m_ls + 1):]
    new_state = SolverState(
        x=x_new,
        x_prev=state.x,
        grad=f.gradient(x_new),
        grad_prev=state.grad,
        metric=metric,
        f_history=history,
        iteration=state.iteration + 1,
        stepsize_state=StepsizeState(prev_alpha=alpha, prev_metric=metric),
        forward=y_new,
        f_x=f_new,
    )
    return new_state, record


def reference_vmpg_step(f, g, state, config):
    ss = state.stepsize_state
    alpha = ss.prev_alpha
    if config.method == "pg-fixed":
        metric = DiagonalMetric.uniform(
            state.x.shape[0], 1.0 / _resolve_fixed_stepsize(f, config)
        )
    elif config.method in ("vmpg-dbb", "pg-bb"):
        pair = StepPair._trusted(state.x - state.x_prev, state.grad - state.grad_prev)
        if config.method == "vmpg-dbb":
            metric = vmpg.solver.diagonal_bb(pair, config, ss)
        else:
            alpha = vmpg.solver.hybrid_bb(pair, config, ss)
            metric = DiagonalMetric._trusted_uniform(state.x.shape[0], 1.0 / alpha)
    else:
        raise ValueError(f"vmpg_step does not drive method {config.method!r}")
    return vmpg.solver._advance(
        f, g, state, metric, alpha, _reference_value(state, config), config)


def reference_fista_step(f, g, state, config):
    backtrack = config.line_search != "off"
    z, alpha, metric = state.z, state.alpha, state.metric
    grad_z = f.gradient(z)
    if backtrack:
        f_z = f.value(z)
        if math.isnan(f_z):
            raise NumericalError("NaN objective at the extrapolated point")
    backtracks = 0
    while True:
        w = z - alpha * grad_z
        x = g.prox(w, metric)
        if not backtrack:
            obj = f.value(x) + _g_at_prox(g, x)
            break
        diff = x - z
        bound = f_z + float(np.dot(grad_z, diff)) + np.dot(diff, diff) / (2 * alpha)
        f_x = f.value(x)
        if math.isnan(f_x):
            raise NumericalError("NaN objective at the candidate point")
        if f_x <= bound:
            obj = f_x + _g_at_prox(g, x)
            break
        if backtracks >= config.max_backtracks:
            raise LineSearchError(state.iteration, backtracks, f_x, bound, metric.u_max)
        alpha /= config.beta
        u = 1.0 / alpha if alpha > 0.0 else math.inf
        metric = DiagonalMetric._trusted_uniform(x.shape[0], u)
        backtracks += 1
    if math.isnan(obj):
        raise NumericalError("NaN objective at the candidate point")
    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * state.t**2))
    z_next = x + ((state.t - 1.0) / t_next) * (x - state.x)
    root, u = math.sqrt(alpha), 1.0 / alpha
    record = TraceRecord(state.iteration, obj, reference_norm(z - x) / root,
                         reference_norm(x - state.x) / root, backtracks, u, u, 0.0)
    return FistaState(x, z, z_next, t_next, alpha, metric, w, obj, record.iter + 1), record


def reference_bb_values(pair):
    s, y = pair.s, pair.y
    ss = float(np.dot(s, s))
    sy = float(np.dot(s, y))
    yy = float(np.dot(y, y))
    _guard_pair(ss + sy + yy, s, y)
    if sy <= 0.0 or yy == 0.0:
        return None
    return ss / sy, sy / yy


def reference_diagonal_bb(pair, config, state):
    if pair.s.ndim == 2:
        u_prev = state.prev_metric.diag.reshape(pair.s.shape)
        diag = reference_node_diagonal_bb(pair.s, pair.y, config, u_prev)
        return DiagonalMetric._trusted(diag.reshape(-1))
    values = vmpg.stepsize._bb_values(pair)
    if values is None:
        lo = 1.0 / config.alpha_max
        hi = 1.0 / config.alpha_min
    else:
        a1 = min(max(values[0], config.alpha_min), config.alpha_max)
        a2 = min(max(values[1], config.alpha_min), config.alpha_max)
        lo = 1.0 / a1
        hi = 1.0 / a2
        if lo > hi:
            lo, hi = hi, lo
    u_prev = state.prev_metric.diag
    if u_prev.shape[0] != pair.s.shape[0]:
        raise ValueError("dimension mismatch")
    candidates = (pair.s * pair.y + config.mu * u_prev) / (pair.s**2 + config.mu)
    return DiagonalMetric._trusted(np.clip(candidates, lo, hi))


def reference_hybrid_bb(pair, config, state):
    if pair.s.ndim == 2:
        return reference_node_hybrid_bb(pair.s, pair.y, config, state.prev_alpha)
    values = vmpg.stepsize._bb_values(pair)
    if values is None:
        alpha = state.prev_alpha
    else:
        a1, a2 = values
        alpha = a2 if a1 < config.delta * a2 else a1 - a2 / config.delta
    if alpha <= 0.0:
        alpha = state.prev_alpha
    return float(min(max(alpha, config.alpha_min), config.alpha_max))


def reference_node_bb(S, Y):
    """Per-row (alpha_bb1, alpha_bb2, degenerate) of an (m, n) pair."""
    def row_dot(a, b):
        return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ss = row_dot(S, S)
        sy = row_dot(S, Y)
        yy = row_dot(Y, Y)
        _guard_pair(ss.sum() + sy.sum() + yy.sum(), S, Y)
        return ss / sy, sy / yy, (sy <= 0.0) | (yy == 0.0)


def reference_node_hybrid_bb(S, Y, config, prev_alpha):
    a1, a2, degenerate = reference_node_bb(S, Y)
    with np.errstate(invalid="ignore", over="ignore"):
        alpha = np.where(a1 < config.delta * a2, a2, a1 - a2 / config.delta)
    alpha = np.where(degenerate | (alpha <= 0.0), prev_alpha, alpha)
    return np.clip(alpha, config.alpha_min, config.alpha_max)


def reference_node_diagonal_bb(S, Y, config, u_prev):
    a1, a2, degenerate = reference_node_bb(S, Y)
    a1 = np.minimum(np.maximum(a1, config.alpha_min), config.alpha_max)
    a2 = np.minimum(np.maximum(a2, config.alpha_min), config.alpha_max)
    lo = np.where(degenerate, 1.0 / config.alpha_max, 1.0 / a1)
    hi = np.where(degenerate, 1.0 / config.alpha_min, 1.0 / a2)
    swap = lo > hi
    lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
    candidates = (S * Y + config.mu * u_prev) / (S**2 + config.mu)
    return np.clip(candidates, lo[:, None], hi[:, None])


def reference_consensus_metric(pair, mode, config, state, n_nodes):
    """The round's metric over the stacked vector as a mode switch, with
    the node rules over (n_nodes, n) blocks; returns (metric, prev_alpha)."""
    if mode in ("local-bb", "local-dbb"):
        S = pair.s.reshape(n_nodes, -1)
        Y = pair.y.reshape(n_nodes, -1)
        if mode == "local-bb":
            alpha = reference_node_hybrid_bb(S, Y, config, state.prev_alpha)
            return DiagonalMetric._trusted(np.repeat(1.0 / alpha, S.shape[1])), alpha
        u_prev = state.prev_metric.diag.reshape(S.shape)
        diag = reference_node_diagonal_bb(S, Y, config, u_prev)
        return DiagonalMetric._trusted(diag.reshape(-1)), state.prev_alpha
    if mode == "global-bb":
        alpha = reference_hybrid_bb(pair, config, state)
        return DiagonalMetric._trusted_uniform(pair.s.shape[0], 1.0 / alpha), alpha
    if mode == "global-dbb":
        return reference_diagonal_bb(pair, config, state), state.prev_alpha
    raise ValueError(f"unknown consensus mode {mode!r}")


def reference_trusted(cls, diag, u_min=None, u_max=None):
    metric = object.__new__(DiagonalMetric)
    metric.diag = diag
    metric.u_min = float(diag.min()) if u_min is None else u_min
    metric.u_max = float(diag.max()) if u_max is None else u_max
    if not (metric.u_min >= METRIC_FLOOR and math.isfinite(metric.u_max)):
        raise NumericalError("non-finite metric diagonal")
    return metric


def reference_trusted_uniform(cls, dim, value):
    return cls._trusted(np.full(dim, value), value, value)


def reference_quadratic_value(self, x):
    return 0.5 * float(x @ self._image(x)) + float(self.q @ x) + self.p


def reference_consensus_prox(self, v, metric):
    v = np.asarray(v, dtype=float)
    n = self._shape(v)
    if self.n_blocks == 1:
        return v.copy()
    vb = v.reshape(self.n_blocks, n)
    ub = metric.diag.reshape(self.n_blocks, n)
    z = np.sum(ub * vb, axis=0) / np.sum(ub, axis=0)
    return np.tile(z, self.n_blocks)


def reference_image_of(self, x):
    """The node pass in node order, every call."""
    ends = np.cumsum([f.A.shape[0] for f in self.objectives]).tolist()
    rows = [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]
    residual = np.empty(ends[-1])
    grads = np.empty((len(self.objectives), self.block_dim))
    squares = []
    for f, r_rows, x_j, g_j in zip(self.objectives, rows, self._blocks(x), grads):
        r = residual[r_rows]
        np.matmul(f.A, x_j, out=r)
        r -= f.b
        squares.append(r @ r)
        np.matmul(f.A.T, r, out=g_j)
    return np.array(squares), grads


@pytest.fixture
def reference_path(monkeypatch):
    """Install every reference function where the current code looks it up."""
    monkeypatch.setattr(vmpg.solver, "line_search", reference_line_search)
    monkeypatch.setattr(vmpg.solver, "_advance", reference_advance)
    # every BB iteration, of solve and of each consensus mode, looks its
    # rule up in vmpg.solver
    for module in (vmpg.solver, vmpg.stepsize):
        monkeypatch.setattr(module, "diagonal_bb", reference_diagonal_bb)
        monkeypatch.setattr(module, "hybrid_bb", reference_hybrid_bb)
    monkeypatch.setattr(vmpg.stepsize, "_bb_values", reference_bb_values)
    monkeypatch.setattr(vmpg.solver, "vmpg_step", reference_vmpg_step)
    monkeypatch.setattr(vmpg.solver, "_fista_step", reference_fista_step)
    monkeypatch.setattr(vmpg.solver, "_norm", reference_norm)
    monkeypatch.setattr(DiagonalMetric, "_trusted", classmethod(reference_trusted))
    monkeypatch.setattr(DiagonalMetric, "_trusted_uniform",
                        classmethod(reference_trusted_uniform))
    monkeypatch.setattr(QuadraticObjective, "value", reference_quadratic_value)
    monkeypatch.setattr(Consensus, "prox", reference_consensus_prox)
    monkeypatch.setattr(_StackedLeastSquares, "_image_of", reference_image_of)


@pytest.fixture(scope="module")
def current_battery():
    return battery()


def test_the_battery_matches_the_reference_path(current_battery, reference_path):
    reference = battery()
    assert reference.keys() == current_battery.keys()
    differing = [key for key in reference if reference[key] != current_battery[key]]
    assert differing == []


def test_the_battery_sees_a_change_in_summation_order(current_battery, monkeypatch):
    """Summing the consensus average in reverse node order moves only the last
    bits of a few entries; the battery must notice."""
    def reversed_prox(self, v, metric):
        n = self._shape(v)
        if self.n_blocks == 1:
            return v.copy()
        vb = v.reshape(self.n_blocks, n)[::-1]
        ub = metric.diag.reshape(self.n_blocks, n)[::-1]
        z = np.sum(ub * vb, axis=0) / np.sum(ub, axis=0)
        return np.tile(z, self.n_blocks)

    monkeypatch.setattr(Consensus, "prox", reversed_prox)
    changed = battery()
    differing = {key[:3] for key in changed if changed[key] != current_battery[key]}
    assert differing
    assert all(key[0] == "consensus" and key[2] > 1 for key in differing)


def _nodes(rng, row_major):
    """Three least-squares nodes over a 6-dim block, with or without
    row-major designs (column-major and strided views otherwise)."""
    big = rng.standard_normal((200, 24))
    if row_major:
        designs = [big[:50, :6].copy(), big[50:100, :6].copy(), big[150:170, 6:12].copy()]
    else:
        designs = [np.asfortranarray(big[:50, :6]), big[50:150:2, :12:2],
                   big[150:170, 6:12]]
    return [LeastSquaresObjective(A, rng.standard_normal(A.shape[0]), ridge=0.1 * j)
            for j, A in enumerate(designs)]


@pytest.mark.parametrize("row_major", [True, False])
def test_the_node_pass_alternates_its_order_and_keeps_its_bits(row_major):
    rng = np.random.default_rng(7)
    f = ConsensusProblem(_nodes(rng, row_major), 6).stacked()
    assert type(f) is _StackedLeastSquares
    loop = _Stacked(f.objectives, 6)
    starts = []  # the node each pass started from
    for _ in range(4):
        x = rng.standard_normal(f.dim)  # a fresh point: value makes a pass
        assert bits(f.value(x)) == bits(loop.value(x))
        assert bits(f.gradient(x)) == bits(loop.gradient(x))
        starts.append(f._nodes[0][0])
        squares, grads = f._image_of(x)  # a second pass, in the other order
        starts.append(f._nodes[0][0])
        want_squares, want_grads = reference_image_of(f, x)
        assert bits(squares) == bits(want_squares)
        assert bits(grads) == bits(want_grads)
    assert starts == [2, 0] * 4


def allocating_image_of(self, x):
    """The node pass with fresh buffers on every call and np.matmul on every
    layout; successive passes alternate their node order."""
    nodes = vars(self).get("_allocating_nodes")
    if nodes is None:
        ends = np.cumsum([f.A.shape[0] for f in self.objectives]).tolist()
        nodes = self._allocating_nodes = [
            (j, f.A, f.A.T, f.b, slice(a, b))
            for j, (f, a, b) in enumerate(zip(self.objectives, [0] + ends[:-1], ends))
        ]
    nodes.reverse()
    residual = np.empty(sum(f.A.shape[0] for f in self.objectives))
    squares = np.empty(len(nodes))
    grads = np.empty((len(nodes), self.block_dim))
    xb = self._blocks(x)
    for j, A, At, b, rows in nodes:
        r = residual[rows]
        np.matmul(A, xb[j], out=r)
        r -= b
        squares[j] = r.dot(r)
        np.matmul(At, r, out=grads[j])
    return squares, grads


def rebuilding_with_bytes(step, problem):
    state, record = step
    return state, ConsensusTraceRecord(
        **vars(record), bytes_exchanged=problem.bytes_per_round()
    )


def rebuilding_round(problem, state, mode="local-dbb", config=None):
    """consensus_round building its stacked objective and prox every round."""
    config = config or SolverConfig()
    f = problem.stacked()
    g = Consensus(problem.n_nodes)
    pair = StepPair._trusted(state.x - state.x_prev, state.grad - state.grad_prev)
    metric, alpha = reference_consensus_metric(
        pair, mode, config, state.stepsize_state, problem.n_nodes
    )
    return rebuilding_with_bytes(
        _advance(f, g, state, metric, alpha, _reference_value(state, config), config),
        problem,
    )


def rebuilding_solve(problem, x0, mode, config):
    """solve_consensus driving rebuilding_round, under the same certificate."""
    f = problem.stacked()
    g = Consensus(problem.n_nodes)
    x, f_x, trace, status, stopped_by = _iterate(
        f, g, np.tile(x0, problem.n_nodes), config,
        lambda x: rebuilding_with_bytes(_warmup(f, g, x, config), problem),
        lambda state: rebuilding_round(problem, state, mode, config),
        _duality_gap(f, g),
    )
    return ConsensusResult(x[:problem.dim].copy(), status, trace, len(trace), f_x,
                           stopped_by)


def _relaid(A, j):
    """A copy of A's values in one of four layouts that are not row-major."""
    m, n = A.shape
    if j % 4 == 0:
        return np.asfortranarray(A)
    if j % 4 == 1:
        big = np.zeros((2 * m, n))
        big[::2] = A
        return big[::2]  # every other row
    if j % 4 == 2:
        big = np.zeros((m, 2 * n))
        big[:, ::2] = A
        return big[:, ::2]  # every other column
    big = np.zeros((m, n + 7))
    big[:, :n] = A
    return big[:, :n]  # rows of a wider matrix


def benchmark_shaped(row_major, moduli=True):
    """The benchmark's consensus instance at half its rows: a 2000 x 100
    least-squares design split over 20 nodes of 9 to 191 rows.  Without
    moduli its nodes declare no strong_convexity, so no certificate ends
    its runs."""
    problem = split_regression(generate_regression(2000, 100, "ls", 11), 20, 1e-2)
    if not row_major:
        nodes = [LeastSquaresObjective(_relaid(f.A, j), f.b, f.scale, f.ridge)
                 for j, f in enumerate(problem.objectives)]
        problem = ConsensusProblem(nodes, problem.dim)
    if not moduli:
        for f in problem.objectives:
            f.strong_convexity = None
    return problem


@pytest.mark.parametrize("row_major", [True, False])
def test_benchmark_shaped_rounds_match_the_rebuilding_reference(row_major, monkeypatch):
    problem = benchmark_shaped(row_major)
    rows = [f.A.shape[0] for f in problem.objectives]
    assert len(rows) == 20 and {r % 4 for r in rows} == {0, 1, 2, 3}
    assert all(f.A.flags.c_contiguous == row_major for f in problem.objectives)
    f = problem.stacked()
    assert type(f) is _StackedLeastSquares
    rng = np.random.default_rng(12)
    for _ in range(4):
        x = rng.standard_normal(f.dim)
        squares, grads = f._image_of(x)
        want_squares, want_grads = allocating_image_of(f, x)
        assert bits(squares) == bits(want_squares)
        assert bits(grads) == bits(want_grads)
    x0 = np.zeros(problem.dim)
    backtracks = 0
    for mode, ls_mode, moduli in itertools.product(MODES, LINE_SEARCH_MODES, (True, False)):
        config = SolverConfig(mu=1.0, line_search=ls_mode, eps_tol=1e-12, max_iter=6)
        got = solve_consensus(benchmark_shaped(row_major, moduli), x0, mode, config)
        with monkeypatch.context() as patched:
            patched.setattr(_StackedLeastSquares, "_image_of", allocating_image_of)
            want = rebuilding_solve(benchmark_shaped(row_major, moduli), x0, mode, config)
        assert digest(got) == digest(want)
        if moduli:
            assert got.stopped_by == "gap"
        else:
            assert got.iterations == 6
            backtracks += sum(r.backtracks for r in got.trace)
    assert backtracks > 0
