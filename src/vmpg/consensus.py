"""Bulk-synchronous consensus optimization over node-local objectives.

Each of m nodes holds a private smooth f_j over a shared variable.  A round
takes one forward step per node under a node metric U_j, aggregates the
metric-weighted average

    z = (sum_j U_j)^{-1} (sum_j U_j y_j),

broadcasts z back, and accepts or rescales all metrics under the global
nonmonotone test on sum_j f_j.  Metrics come from per-node BB pairs (local
modes) or from the concatenated pair across nodes (global modes).

The execution here is a deterministic sequential simulation: node updates
are independent within a round and the reduction is summed in node order.
"""

from dataclasses import dataclass

import numpy as np

from .core import DiagonalMetric, SmoothObjective, as_vector
from .prox import Consensus
from .solver import (
    SolverConfig,
    TraceRecord,
    _advance,
    _iterate,
    _reference_value,
    # not called here: kept so that code patching vmpg.consensus.line_search
    # (as the benchmark's tracer does) still finds the attribute
    line_search,
)
from .stepsize import StepPair, _guard_pair, diagonal_bb, hybrid_bb
from .problems import (
    LeastSquaresObjective,
    LogisticObjective,
    RegressionProblem,
    _least_squares,
    _PointMemo,
)

MODES = ("local-bb", "local-dbb", "global-bb", "global-dbb")


@dataclass
class ConsensusTraceRecord(TraceRecord):
    bytes_exchanged: int = 0


class _Stacked(SmoothObjective):
    """sum_j f_j(x_j) over the stacked variable (x_1, ..., x_m)."""

    def __init__(self, objectives, block_dim):
        self.objectives = list(objectives)
        self.block_dim = int(block_dim)

    @property
    def dim(self):
        return self.block_dim * len(self.objectives)

    def _blocks(self, x):
        return x.reshape(len(self.objectives), self.block_dim)

    def value(self, x):
        xb = self._blocks(np.asarray(x))
        return sum(f.value(xb[j]) for j, f in enumerate(self.objectives))

    def gradient(self, x):
        xb = self._blocks(np.asarray(x))
        return np.concatenate(
            [f.gradient(xb[j]) for j, f in enumerate(self.objectives)]
        )


def _plain_least_squares(f):
    """f is a LeastSquaresObjective whose value and gradient are its class's."""
    if type(f) is not LeastSquaresObjective:
        return False
    own = vars(f)
    return not ("value" in own or "gradient" in own)


class _StackedLeastSquares(_PointMemo, _Stacked):
    """_Stacked over least-squares nodes, evaluated in one pass over the nodes.

    sum_j s_j ||A_j x_j - b_j||^2 + r_j ||x_j||^2.  One memo entry, keyed on
    the whole stacked point, holds every node's r_j . r_j and A_j' r_j: a
    single node loop writes A_j x_j into its rows of one residual buffer,
    subtracts b_j in place and applies A_j' while A_j is still in cache.
    Each node makes the products and elementwise operations that
    LeastSquaresObjective makes, and node values are summed in node order,
    so value and gradient are bitwise _Stacked's.  The nodes' matrices,
    vectors and constants must not change after construction.
    """

    def __init__(self, objectives, block_dim):
        super().__init__(objectives, block_dim)
        self._nodes = [(f.A, f.A.T, f.b) for f in self.objectives]
        ends = np.cumsum([f.A.shape[0] for f in self.objectives]).tolist()
        self._rows = [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]
        self._n_rows = ends[-1]
        self._scale = np.array([f.scale for f in self.objectives])
        self._ridge = np.array([f.ridge for f in self.objectives])
        self._two_scale = (2.0 * self._scale)[:, None]
        self._two_ridge = (2.0 * self._ridge)[:, None]

    def _image_of(self, x):
        residual = np.empty(self._n_rows)
        grads = np.empty((len(self.objectives), self.block_dim))
        squares = []
        for (A, At, b), rows, x_j, g_j in zip(
            self._nodes, self._rows, self._blocks(x), grads
        ):
            r = residual[rows]
            np.matmul(A, x_j, out=r)
            r -= b
            squares.append(r @ r)
            np.matmul(At, r, out=g_j)
        return np.array(squares), grads

    def value(self, x):
        x = np.asarray(x)
        xb = self._blocks(x)
        squares, _ = self._image(x)
        terms = self._scale * squares + self._ridge * _row_dot(xb, xb)
        return sum(terms.tolist())

    def gradient(self, x):
        x = np.asarray(x)
        xb = self._blocks(x)
        _, grads = self._image(x)
        out = grads * self._two_scale
        out += self._two_ridge * xb
        return out.reshape(-1)


@dataclass
class ConsensusProblem:
    """Node objectives over a shared variable of dimension dim."""

    objectives: list
    dim: int

    _batched = None  # the one-pass stack that stacked() keeps; not a dataclass field

    def __post_init__(self):
        if not self.objectives:
            raise ValueError("need at least one node")
        for j, f in enumerate(self.objectives):
            if f.dim != self.dim:
                raise ValueError(f"node {j} has dimension {f.dim}, expected {self.dim}")

    @property
    def n_nodes(self):
        return len(self.objectives)

    def stacked(self):
        """sum_j f_j(x_j) over the stacked variable (x_1, ..., x_m).

        When every node is a plain LeastSquaresObjective the result is the
        one-pass _StackedLeastSquares, built once and kept on the problem;
        otherwise, or once a node's value or gradient is replaced on the
        instance, it is the per-node loop _Stacked.  Both are bitwise equal.
        """
        if not all(map(_plain_least_squares, self.objectives)):
            return _Stacked(self.objectives, self.dim)
        if self._batched is None or self._batched.objectives != self.objectives:
            self._batched = _StackedLeastSquares(self.objectives, self.dim)
        return self._batched

    def bytes_per_round(self):
        # each node uploads its forward point and downloads z, 8 bytes/coord
        return 2 * self.dim * self.n_nodes * 8


@dataclass
class ConsensusResult:
    z: np.ndarray
    status: str
    trace: list
    iterations: int
    final_objective: float


def split_regression(problem, n_nodes, ridge):
    """Shard a RegressionProblem across nodes, sizes proportional to index.

    Node j (1-based) receives ~ N * j / sum(1..m) contiguous rows; sizes are
    nondecreasing and sum to N.  The l2^2 penalty ridge * ||x||^2 is folded
    into each node objective, and every node keeps the global 1/N loss scale.
    """
    if not isinstance(problem, RegressionProblem):
        raise TypeError("split_regression expects a RegressionProblem")
    n_total = problem.A.shape[0]
    if n_nodes < 1 or n_nodes > n_total:
        raise ValueError(f"cannot split {n_total} rows across {n_nodes} nodes")
    weight_sum = n_nodes * (n_nodes + 1) // 2
    sizes = [n_total * (j + 1) // weight_sum for j in range(n_nodes)]
    shortfall = n_total - sum(sizes)
    for j in range(n_nodes - shortfall, n_nodes):
        sizes[j] += 1
    while 0 in sizes:  # tiny N: steal a row from the largest shard
        sizes[sizes.index(0)] += 1
        sizes[int(np.argmax(sizes))] -= 1
        sizes.sort()
    objectives = []
    offset = 0
    for size in sizes:
        rows = slice(offset, offset + size)
        if problem.loss == "ls":
            f = _least_squares(
                problem.A[rows], problem.b[rows], scale=1.0 / n_total, ridge=ridge
            )
        else:
            f = LogisticObjective(
                problem.A[rows], problem.b[rows], scale=1.0 / n_total, ridge=ridge
            )
        objectives.append(f)
        offset += size
    return ConsensusProblem(objectives=objectives, dim=problem.A.shape[1])


def _row_dot(a, b):
    """Inner products of matching rows; bitwise equal to np.dot row by row.

    A (1, n) @ (n, 1) matmul reduces each row as np.dot does; einsum and
    (a * b).sum(1) sum in other orders and differ in the last bits.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _node_bb(S, Y):
    """Per-row (alpha_bb1, alpha_bb2, degenerate) as bb1/bb2 give them.

    A row is degenerate where bb1 or bb2 returns None; its two values are
    then meaningless and must not be used.  Raises NumericalError when S or
    Y has a NaN or Inf entry, checked as the scalar rules check a pair.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ss = _row_dot(S, S)
        sy = _row_dot(S, Y)
        yy = _row_dot(Y, Y)
        _guard_pair(ss.sum() + sy.sum() + yy.sum(), S, Y)
        return ss / sy, sy / yy, (sy <= 0.0) | (yy == 0.0)


def node_hybrid_bb(S, Y, config, prev_alpha):
    """hybrid_bb applied to each row pair (S[j], Y[j]); returns an (m,) array.

    prev_alpha is the fallback per row, a scalar or an (m,) array.
    """
    a1, a2, degenerate = _node_bb(S, Y)
    alpha = np.where(a1 < config.delta * a2, a2, a1 - a2 / config.delta)
    alpha = np.where(degenerate | (alpha <= 0.0), prev_alpha, alpha)
    return np.minimum(np.maximum(alpha, config.alpha_min), config.alpha_max)


def node_diagonal_bb(S, Y, config, u_prev):
    """diagonal_bb applied to each row pair; returns the (m, n) metric diagonal.

    u_prev is the previous metric diagonal in the same (m, n) layout.
    """
    a1, a2, degenerate = _node_bb(S, Y)
    a1 = np.minimum(np.maximum(a1, config.alpha_min), config.alpha_max)
    a2 = np.minimum(np.maximum(a2, config.alpha_min), config.alpha_max)
    lo = np.where(degenerate, 1.0 / config.alpha_max, 1.0 / a1)
    hi = np.where(degenerate, 1.0 / config.alpha_min, 1.0 / a2)
    swap = lo > hi  # float noise can invert the ordering of eq-close values
    lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
    candidates = (S * Y + config.mu * u_prev) / (S**2 + config.mu)
    return np.clip(candidates, lo[:, None], hi[:, None])


def consensus_metric(pair, mode, config, state, n_nodes):
    """Metric of one round over the stacked vector; returns (metric, prev_alpha).

    Local modes apply the BB rules to each node's block of the stacked step
    pair, all nodes at once; global modes apply them to the whole pair.
    state carries the stacked metric accepted last round and the last
    scalar stepsize, or one per node in local-bb.
    """
    if mode in ("local-bb", "local-dbb"):
        S = pair.s.reshape(n_nodes, -1)
        Y = pair.y.reshape(n_nodes, -1)
        if mode == "local-bb":
            alpha = node_hybrid_bb(S, Y, config, state.prev_alpha)
            return DiagonalMetric._trusted(np.repeat(1.0 / alpha, S.shape[1])), alpha
        u_prev = state.prev_metric.diag.reshape(S.shape)
        diag = node_diagonal_bb(S, Y, config, u_prev)
        return DiagonalMetric._trusted(diag.reshape(-1)), state.prev_alpha
    if mode == "global-bb":
        alpha = hybrid_bb(pair, config, state)
        return DiagonalMetric._trusted_uniform(pair.s.shape[0], 1.0 / alpha), alpha
    if mode == "global-dbb":
        return diagonal_bb(pair, config, state), state.prev_alpha
    raise ValueError(f"unknown consensus mode {mode!r}; choose from {MODES}")


def _with_bytes(record, problem):
    """record as a ConsensusTraceRecord carrying the round's communication."""
    return ConsensusTraceRecord(
        **vars(record), bytes_exchanged=problem.bytes_per_round()
    )


def consensus_round(problem, state, mode="local-dbb", config=None):
    """Advance one synchronous round; returns (state, ConsensusTraceRecord).

    Each node takes a forward step under its metric, the scaled consensus
    prox aggregates the metric-weighted average z, and z is broadcast back,
    so after the round every node copy in state.x equals z.  The round is
    solve's iteration kernel on the stacked objective with the Consensus
    prox and the metric from consensus_metric: the nonmonotone acceptance
    test runs on the summed objective and rescales all blocks on rejection.
    Node memory lives in state.stepsize_state: prev_metric is the stacked
    metric accepted last round and prev_alpha the last scalar stepsize (one
    per node in local-bb).  A round builds one metric plus one per
    backtrack.  Raises LineSearchError after max_backtracks and
    NumericalError when the step pair or a candidate objective is NaN.
    """
    if mode not in MODES:
        raise ValueError(f"unknown consensus mode {mode!r}; choose from {MODES}")
    config = config or SolverConfig()
    f = problem.stacked()
    g = Consensus(problem.n_nodes)
    pair = StepPair._trusted(state.x - state.x_prev, state.grad - state.grad_prev)
    metric, alpha = consensus_metric(
        pair, mode, config, state.stepsize_state, problem.n_nodes
    )
    state, record = _advance(
        f, g, state, metric, alpha, _reference_value(state, config), config
    )
    return state, _with_bytes(record, problem)


def solve_consensus(problem, x0, mode="local-dbb", config=None):
    """Run consensus rounds from a shared starting point x0.

    Every node starts at x0; the rounds run under solve's driver, so they
    proceed until config.stop_rule holds on the stacked iterates or
    max_iter.  Returns the consensus point z with a per-round trace that
    includes the bytes-exchanged cost metric.
    """
    if mode not in MODES:
        raise ValueError(f"unknown consensus mode {mode!r}; choose from {MODES}")
    config = config or SolverConfig()
    x0 = as_vector(x0, dim=problem.dim, name="x0")
    x, f_x, trace, status = _iterate(
        problem.stacked(),
        Consensus(problem.n_nodes),
        np.tile(x0, problem.n_nodes),
        config,
        lambda state: consensus_round(problem, state, mode, config),
    )
    if trace:
        trace[0] = _with_bytes(trace[0], problem)
    return ConsensusResult(
        z=x[:problem.dim].copy(),
        status=status,
        trace=trace,
        iterations=len(trace),
        final_objective=f_x,
    )
