"""Synchronous consensus splitting: sharding, per-node metrics, rounds."""

import dataclasses
import warnings

import numpy as np
import pytest

import vmpg.consensus
import vmpg.solver
from vmpg.consensus import (
    MODES,
    ConsensusProblem,
    ConsensusTraceRecord,
    consensus_round,
    solve_consensus,
    split_regression,
)
from vmpg.core import BlockDiagonalMetric, DiagonalMetric
from vmpg.prox import Consensus
from vmpg.problems import QuadraticObjective, generate_regression
from vmpg.solver import (
    CONVERGED,
    LINE_SEARCH_FAILURE,
    MAX_ITER,
    LineSearchError,
    SolverConfig,
    _GAP_EVERY,
    _GAP_ROUNDING,
    line_search,
    solve,
    warmup_step,
)
from vmpg.stepsize import StepPair, StepsizeState, bb1, bb2, diagonal_bb, hybrid_bb

from digests import record_digest


def scalar_curvature_problem(curvatures, dim=3):
    """One node per entry, f_j(x) = (c_j/2) ||x||^2."""
    objs = [
        QuadraticObjective(c * np.eye(dim), np.zeros(dim), 0.0, c, c)
        for c in curvatures
    ]
    return ConsensusProblem(objectives=objs, dim=dim)


def start_round_state(problem, config):
    """Warm-up on the stacked problem, every node starting at ones."""
    f = problem.stacked()
    g = Consensus(problem.n_nodes)
    x0 = np.tile(np.ones(problem.dim), problem.n_nodes)
    state, _ = warmup_step(f, g, x0, config)
    return state


def node_metric_block(state, j, dim):
    """Node j's block of the metric accepted in the last round."""
    return state.stepsize_state.prev_metric.diag[j * dim:(j + 1) * dim]


# --- reference: the per-node round, one metric and one BB call per node -----


def reference_local_metric(pair, mode, bb_config, state):
    if mode == "local-bb":
        alpha = hybrid_bb(pair, bb_config, state)
        state.prev_alpha = alpha
        return DiagonalMetric.uniform(pair.s.shape[0], 1.0 / alpha)
    return diagonal_bb(pair, bb_config, state)


def reference_round_metric(mode, pairs, bb_config, node_states):
    m = len(pairs)
    dim = pairs[0].s.shape[0]
    if mode in ("local-bb", "local-dbb"):
        return BlockDiagonalMetric(
            [reference_local_metric(pairs[j], mode, bb_config, node_states[j])
             for j in range(m)]
        )
    stacked = StepPair(
        np.concatenate([p.s for p in pairs]), np.concatenate([p.y for p in pairs])
    )
    if mode == "global-bb":
        shared = StepsizeState(
            prev_alpha=node_states[0].prev_alpha,
            prev_metric=DiagonalMetric.identity(1),
        )
        alpha = hybrid_bb(stacked, bb_config, shared)
        for st in node_states:
            st.prev_alpha = alpha
        return BlockDiagonalMetric(
            [DiagonalMetric.uniform(dim, 1.0 / alpha) for _ in range(m)]
        )
    shared = StepsizeState(
        prev_alpha=node_states[0].prev_alpha,
        prev_metric=DiagonalMetric(
            np.concatenate([st.prev_metric.diag for st in node_states])
        ),
    )
    full = diagonal_bb(stacked, bb_config, shared)
    return BlockDiagonalMetric(
        [DiagonalMetric(full.diag[j * dim:(j + 1) * dim]) for j in range(m)]
    )


def reference_round(problem, state, node_states, mode, config):
    f = problem.stacked()
    g = Consensus(problem.n_nodes)
    m, n = problem.n_nodes, problem.dim
    xb = state.x.reshape(m, n)
    xpb = state.x_prev.reshape(m, n)
    gb = state.grad.reshape(m, n)
    gpb = state.grad_prev.reshape(m, n)
    pairs = [StepPair(xb[j] - xpb[j], gb[j] - gpb[j]) for j in range(m)]
    metric = reference_round_metric(mode, pairs, config, node_states)
    window = min(config.m_ls, state.iteration - 1) + 1
    if config.line_search == "off":
        f_ref = None
    elif config.line_search == "monotone":
        f_ref = state.f_x
    else:
        f_ref = max(state.f_history[-window:])
    x_new, y_new, metric, backtracks, f_new = line_search(
        f, g, state.x, state.grad, metric, f_ref, config
    )
    diff = x_new - state.x
    mapping = metric.apply(-diff)
    rec = ConsensusTraceRecord(
        iter=state.iteration,
        objective=f_new,
        grad_map_norm=float(np.sqrt(np.dot(mapping**2, 1.0 / metric.diag))),
        step_norm_u=metric.norm(diff),
        backtracks=backtracks,
        u_min=metric.u_min,
        u_max=metric.u_max,
        wall_ms=0.0,
        bytes_exchanged=problem.bytes_per_round(),
    )
    history = state.f_history + [f_new]
    if len(history) > config.m_ls + 1:
        history = history[-(config.m_ls + 1):]
    for j in range(m):
        node_states[j].prev_metric = DiagonalMetric(metric.diag[j * n:(j + 1) * n])
    state.x_prev = state.x
    state.x = x_new
    state.grad_prev = state.grad
    state.grad = f.gradient(x_new)
    state.metric = metric
    state.f_history = history
    state.iteration += 1
    state.forward = y_new
    state.f_x = f_new
    return state, rec


def reference_certified(problem, state):
    """Whether the strong-convexity certificate holds at the consensus point
    z of state: ||sum_j grad f_j(z)||^2 / (2 sum_j m_j) within 16 eps |F|,
    m_j the nodes' moduli (none without a ridge)."""
    moduli = [f.strong_convexity for f in problem.objectives]
    if None in moduli:
        return False
    total = state.grad.reshape(problem.n_nodes, problem.dim).sum(axis=0)
    gap = float(total @ total) / (2.0 * sum(moduli))
    return gap <= _GAP_ROUNDING * np.finfo(float).eps * abs(state.f_x)


def reference_solve(problem, x0, mode, config):
    """(z, status, trace) of the per-node loop with the forward-step stop and
    the certificate checked at its period: after every round over two or
    more nodes, every _GAP_EVERY-th record over one."""
    f = problem.stacked()
    g = Consensus(problem.n_nodes)
    m, n = problem.n_nodes, problem.dim
    every = 1 if m > 1 else _GAP_EVERY
    state, rec = warmup_step(f, g, np.tile(x0, m), config)
    trace = [ConsensusTraceRecord(
        **{k: getattr(rec, k) for k in rec.__dataclass_fields__},
        bytes_exchanged=problem.bytes_per_round(),
    )]
    node_states = [StepsizeState.initial(n) for _ in range(m)]
    status = MAX_ITER
    while len(trace) < config.max_iter:
        prev_forward = state.forward
        try:
            state, rec = reference_round(problem, state, node_states, mode, config)
        except LineSearchError:
            status = LINE_SEARCH_FAILURE
            break
        trace.append(rec)
        if float(np.linalg.norm(state.forward - prev_forward)) <= config.eps_tol:
            status = CONVERGED
            break
        if len(trace) % every == 0 and reference_certified(problem, state):
            status = CONVERGED
            break
    return state.x[:n].copy(), status, trace


def count_metric_builds(monkeypatch):
    """Count metric builds through both constructors; returns the counter list.

    The validating DiagonalMetric.__init__ and the solver loop's trusted
    DiagonalMetric._trusted are patched; neither calls the other.
    """
    calls = []
    init = DiagonalMetric.__init__
    trusted = DiagonalMetric._trusted

    def counting(self, diag):
        calls.append(1)
        init(self, diag)

    def counting_trusted(cls, *args):
        calls.append(1)
        return trusted(*args)

    monkeypatch.setattr(DiagonalMetric, "__init__", counting)
    monkeypatch.setattr(DiagonalMetric, "_trusted", classmethod(counting_trusted))
    return calls


class TestSplitRegression:
    def test_shard_sizes_nondecreasing_and_exhaustive(self):
        prob = generate_regression(n_samples=103, dim=6, loss="ls", seed=0)
        cp = split_regression(prob, n_nodes=4, ridge=1e-2)
        sizes = [f.A.shape[0] for f in cp.objectives]
        assert sizes == sorted(sizes)
        assert sum(sizes) == 103
        np.testing.assert_array_equal(
            np.concatenate([f.A for f in cp.objectives]), prob.A
        )

    def test_every_node_keeps_global_scale_and_ridge(self):
        prob = generate_regression(n_samples=60, dim=4, loss="ls", seed=1)
        cp = split_regression(prob, n_nodes=3, ridge=0.05)
        for f in cp.objectives:
            assert f.scale == 1.0 / 60
            assert f.ridge == 0.05

    def test_tiny_dataset_never_leaves_a_node_empty(self):
        prob = generate_regression(n_samples=2, dim=3, loss="ls", seed=2)
        cp = split_regression(prob, n_nodes=2, ridge=0.0)
        sizes = [f.A.shape[0] for f in cp.objectives]
        assert sizes == [1, 1]

    def test_rejects_more_nodes_than_rows(self):
        prob = generate_regression(n_samples=3, dim=2, loss="ls", seed=3)
        with pytest.raises(ValueError):
            split_regression(prob, n_nodes=5, ridge=0.0)

    def test_rejects_non_regression_input(self):
        with pytest.raises(TypeError):
            split_regression(object(), n_nodes=2, ridge=0.0)

    def test_shard_objectives_sum_to_pooled_objective(self):
        prob = generate_regression(n_samples=50, dim=5, loss="logistic", seed=4)
        cp = split_regression(prob, n_nodes=3, ridge=0.0)
        from vmpg.problems import smooth_part

        pooled = smooth_part(prob)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(5)
        total = sum(f.value(x) for f in cp.objectives)
        assert abs(total - pooled.value(x)) <= 1e-12


class TestRoundMechanics:
    def test_hessian_curvature_recovered_per_node(self):
        """Exact quadratics give each node its own curvature as metric."""
        problem = scalar_curvature_problem([2.0, 8.0], dim=3)
        cfg = SolverConfig(line_search="off")
        state = start_round_state(problem, cfg)
        state, _ = consensus_round(problem, state, "local-dbb", cfg)
        np.testing.assert_allclose(node_metric_block(state, 0, 3), 2.0 * np.ones(3))
        np.testing.assert_allclose(node_metric_block(state, 1, 3), 8.0 * np.ones(3))
        np.testing.assert_allclose(
            state.metric.diag, np.concatenate([2.0 * np.ones(3), 8.0 * np.ones(3)])
        )

    def test_round_restores_consensus(self):
        prob = generate_regression(n_samples=40, dim=4, loss="ls", seed=6)
        problem = split_regression(prob, n_nodes=3, ridge=1e-2)
        cfg = SolverConfig()
        state = start_round_state(problem, cfg)
        for _ in range(3):
            state, _ = consensus_round(problem, state, "local-dbb", cfg)
            blocks = state.x.reshape(3, 4)
            for j in range(1, 3):
                np.testing.assert_array_equal(blocks[j], blocks[0])

    def test_metric_weighted_average_optimality(self):
        """The aggregated z zeroes the metric-weighted residual sum."""
        prob = generate_regression(n_samples=40, dim=4, loss="ls", seed=7)
        problem = split_regression(prob, n_nodes=4, ridge=1e-2)
        cfg = SolverConfig()
        state = start_round_state(problem, cfg)
        for _ in range(5):
            state, _ = consensus_round(problem, state, "local-dbb", cfg)
        z = state.x[:4]
        resid = np.zeros(4)
        for j in range(4):
            block = slice(j * 4, (j + 1) * 4)
            resid += state.metric.diag[block] * (state.forward[block] - z)
        np.testing.assert_allclose(resid, np.zeros(4), atol=1e-10)

    def test_equal_metrics_reduce_to_scalar_step_on_mean_objective(self):
        """With one shared stepsize the round is plain gradient descent."""
        problem = scalar_curvature_problem([1.0, 3.0, 5.0], dim=4)
        cfg = SolverConfig(line_search="off")
        state = start_round_state(problem, cfg)
        z0 = state.x[:4].copy()
        np.testing.assert_array_equal(state.x.reshape(3, 4)[1], z0)
        state, _ = consensus_round(problem, state, "global-bb", cfg)
        assert state.metric.u_min == state.metric.u_max
        u = state.metric.u_min
        mean_grad = np.mean(
            [f.gradient(z0) for f in problem.objectives], axis=0
        )
        np.testing.assert_allclose(state.x[:4], z0 - mean_grad / u, atol=1e-12)

    def test_single_node_local_and_global_modes_coincide(self):
        prob = generate_regression(n_samples=30, dim=5, loss="ls", seed=8)
        problem = split_regression(prob, n_nodes=1, ridge=1e-2)
        x0 = np.zeros(5)
        cfg = SolverConfig(eps_tol=1e-8)
        for local, global_ in (("local-bb", "global-bb"), ("local-dbb", "global-dbb")):
            a = solve_consensus(problem, x0, local, cfg)
            b = solve_consensus(problem, x0, global_, cfg)
            assert a.status == b.status == CONVERGED
            np.testing.assert_array_equal(a.z, b.z)
            assert [r.objective for r in a.trace] == [r.objective for r in b.trace]

    def test_unknown_mode_rejected(self):
        problem = scalar_curvature_problem([1.0, 2.0])
        with pytest.raises(ValueError):
            solve_consensus(problem, np.zeros(3), "median-bb")
        state = start_round_state(problem, SolverConfig())
        with pytest.raises(ValueError):
            consensus_round(problem, state, "median-bb")


class TestSolveConsensus:
    @pytest.mark.parametrize("mode", MODES)
    def test_all_modes_converge_on_well_posed_shards(self, mode):
        prob = generate_regression(n_samples=200, dim=5, loss="ls", seed=9)
        problem = split_regression(prob, n_nodes=4, ridge=1e-2)
        res = solve_consensus(problem, np.zeros(5), mode, SolverConfig(eps_tol=1e-6))
        assert res.status == CONVERGED
        assert np.isfinite(res.final_objective)

    def test_trace_reports_communication_cost(self):
        problem = scalar_curvature_problem([1.0, 2.0, 4.0], dim=6)
        assert problem.bytes_per_round() == 2 * 6 * 3 * 8
        res = solve_consensus(problem, np.ones(6), "local-dbb", SolverConfig())
        assert res.status == CONVERGED
        assert all(r.bytes_exchanged == 2 * 6 * 3 * 8 for r in res.trace)
        wall = [r.wall_ms for r in res.trace]
        assert all(b >= a for a, b in zip(wall, wall[1:]))

    def test_diagonal_metrics_cut_round_counts_on_shared_data(self):
        """Median rounds over 20 seeds: per-coordinate metrics vs scalar."""
        dbb, bb = [], []
        cfg = SolverConfig(eps_tol=1e-6)
        for seed in range(20):
            prob = generate_regression(n_samples=1000, dim=10, loss="ls", seed=seed)
            problem = split_regression(prob, n_nodes=4, ridge=1e-2)
            res = solve_consensus(problem, np.zeros(10), "local-dbb", cfg)
            assert res.status == CONVERGED
            dbb.append(res.iterations)
            res = solve_consensus(problem, np.zeros(10), "local-bb", cfg)
            # a scalar run that stalls is charged the full budget
            bb.append(res.iterations if res.status == CONVERGED else cfg.max_iter)
        assert np.median(dbb) <= np.median(bb)

    def test_consensus_point_matches_pooled_solver(self):
        from vmpg.problems import LeastSquaresObjective

        prob = generate_regression(n_samples=120, dim=6, loss="ls", seed=10)
        problem = split_regression(prob, n_nodes=3, ridge=1e-2)
        res = solve_consensus(
            problem, np.zeros(6), "local-dbb", SolverConfig(eps_tol=1e-10)
        )
        assert res.status == CONVERGED
        # closed form for (1/N)||Ax-b||^2 + 3 * ridge ||x||^2 summed over shards
        A, b = prob.A, prob.b
        lhs = (2.0 / 120) * A.T @ A + 2.0 * 3 * 1e-2 * np.eye(6)
        rhs = (2.0 / 120) * A.T @ b
        np.testing.assert_allclose(res.z, np.linalg.solve(lhs, rhs), atol=1e-6)


def shards(loss, ridge=1e-2):
    """Three nodes over a 60x6 regression; monotone runs backtrack on it.

    With ridge > 0 the certificate ends most runs within 16 rounds; with
    ridge 0 the nodes have no modulus, and runs go on to max_iter or a
    line-search failure."""
    prob = generate_regression(n_samples=60, dim=6, loss=loss, seed=0)
    return split_regression(prob, n_nodes=3, ridge=ridge)


def rule_rows(rng, dim=5):
    """(S, Y) rows covering every branch of the BB rules, one pair per row."""
    s_rows, y_rows = [], []

    def add(s, y):
        s_rows.append(np.asarray(s, dtype=float))
        y_rows.append(np.asarray(y, dtype=float))

    for _ in range(6):  # generic curvature, close and far BB values
        s = rng.standard_normal(dim)
        add(s, s * rng.uniform(0.1, 10.0, dim) + 0.1 * rng.standard_normal(dim))
    add(np.zeros(dim), rng.standard_normal(dim))                # s = 0
    s = rng.standard_normal(dim)
    add(s, -s)                                                  # <s, y> < 0
    add(np.eye(dim)[0], np.eye(dim)[1])                         # <s, y> = 0
    add(rng.standard_normal(dim), np.zeros(dim))                # y = 0
    s = rng.standard_normal(dim)
    add(s, 1e12 * s)                                            # below alpha_min
    add(s, 1e-12 * s)                                           # above alpha_max
    y = np.zeros(dim)
    y[:2] = 1e-20, 1e200
    add(np.eye(dim)[0] * 1e-300, y)  # <s, y> denormal, ||y||^2 = inf: alpha 0
    swaps = 0
    while swaps < 3:  # colinear pairs where rounding puts bb1 below bb2
        s = rng.standard_normal(dim)
        y = rng.uniform(0.5, 2.0) * s
        pair = StepPair(s, y)
        if bb1(pair) < bb2(pair):
            add(s, y)
            swaps += 1
    return np.array(s_rows), np.array(y_rows)


def check_against_the_per_node_reference(problem, mode, line_search_mode):
    """solve_consensus and reference_solve agree bit for bit on problem."""
    config = SolverConfig(
        line_search=line_search_mode, mu=1e-6, eps_tol=1e-8, max_iter=300
    )
    got = solve_consensus(problem, np.zeros(6), mode, config)
    z, status, trace = reference_solve(problem, np.zeros(6), mode, config)
    assert got.status == status
    assert got.iterations == len(trace)
    assert got.z.tobytes() == z.tobytes()
    assert [record_digest(r) for r in got.trace] == [record_digest(r) for r in trace]
    # the certificate ends the monotone logistic runs (ridge > 0) at round
    # 6, before their first backtrack; every run it does not end that early
    # backtracks
    if line_search_mode == "monotone" and got.stopped_by != "gap":
        assert sum(r.backtracks for r in trace) > 0


class TestBatchedRound:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rowwise_rules_match_the_scalar_rules_bitwise(self):
        rng = np.random.default_rng(11)
        S, Y = rule_rows(rng)
        m = S.shape[0]
        config = SolverConfig()
        prev_alpha = rng.uniform(0.1, 10.0, m)
        u_prev = rng.uniform(0.1, 10.0, S.shape)
        # degenerate rows divide by zero in no warning; the overflowing row
        # warns in both rules alike, so overflow is silenced
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            pair = StepPair._trusted(S, Y)  # m node blocks, one per row
            alphas = hybrid_bb(pair, config, StepsizeState(prev_alpha=prev_alpha))
            state = StepsizeState(prev_metric=DiagonalMetric(u_prev.reshape(-1)))
            diags = diagonal_bb(pair, config, state).diag.reshape(S.shape)
        branches = set()
        for j in range(m):
            pair = StepPair(S[j], Y[j])
            a1, a2 = bb1(pair), bb2(pair)
            if a1 is None or a2 is None:
                branches.add("degenerate")
            else:
                close = a1 < config.delta * a2
                alpha = a2 if close else a1 - a2 / config.delta
                branches.add("bb2" if close else "gap")
                branches.add("swap" if a1 < a2 else "ordered")
                branches.add("nonpositive" if alpha <= 0.0 else "positive")
            want = hybrid_bb(pair, config, StepsizeState(prev_alpha=prev_alpha[j]))
            assert np.float64(alphas[j]).tobytes() == np.float64(want).tobytes(), j
            state = StepsizeState(prev_metric=DiagonalMetric(u_prev[j]))
            assert diags[j].tobytes() == diagonal_bb(pair, config, state).diag.tobytes(), j
        assert branches == {
            "degenerate", "bb2", "gap", "swap", "ordered", "nonpositive", "positive"
        }

    def test_hybrid_rule_takes_a_scalar_fallback(self):
        S = np.zeros((2, 3))
        Y = np.ones((2, 3))
        config = SolverConfig()
        alphas = hybrid_bb(StepPair._trusted(S, Y), config, StepsizeState(prev_alpha=0.5))
        np.testing.assert_array_equal(alphas, [0.5, 0.5])

    def test_hybrid_rule_is_quiet_on_a_degenerate_row_with_infinite_ratios(self):
        # row 0's yy underflows to 0, so its ratios are inf and its gap
        # a1 - a2 / delta is NaN; the row is degenerate and takes prev_alpha
        S = np.array([[1.0, 1.0], [1.0, 2.0]])
        Y = np.array([[1e-310, 1e-310], [2.0, 3.0]])
        config = SolverConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alphas = hybrid_bb(StepPair._trusted(S, Y), config,
                               StepsizeState(prev_alpha=0.5))
        want = hybrid_bb(StepPair(S[1], Y[1]), config, StepsizeState(prev_alpha=0.5))
        assert alphas[0] == 0.5
        assert np.float64(alphas[1]).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("line_search_mode", ["nonmonotone", "monotone", "off"])
    @pytest.mark.parametrize("loss", ["ls", "logistic"])
    @pytest.mark.parametrize("mode", MODES)
    def test_solve_matches_the_per_node_reference_bitwise(
        self, mode, loss, line_search_mode
    ):
        check_against_the_per_node_reference(shards(loss), mode, line_search_mode)

    @pytest.mark.parametrize("line_search_mode", ["nonmonotone", "monotone", "off"])
    @pytest.mark.parametrize("loss", ["ls", "logistic"])
    @pytest.mark.parametrize("mode", MODES)
    def test_runs_without_a_certificate_match_the_per_node_reference_bitwise(
        self, mode, loss, line_search_mode
    ):
        check_against_the_per_node_reference(shards(loss, 0.0), mode, line_search_mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_one_metric_build_per_round_plus_one_per_backtrack(self, mode, monkeypatch):
        problem = shards("ls")
        m = problem.n_nodes
        config = SolverConfig(line_search="monotone", mu=1e-6)
        state = start_round_state(problem, config)
        node_states = [StepsizeState.initial(problem.dim) for _ in range(m)]
        builds = count_metric_builds(monkeypatch)
        reference_round(problem, dataclasses.replace(state), node_states, mode, config)
        assert len(builds) >= 2 * m
        backtracks = 0
        for _ in range(15):
            builds.clear()
            try:
                state, rec = consensus_round(problem, state, mode, config)
            except LineSearchError:
                break
            assert len(builds) == 1 + rec.backtracks
            backtracks += rec.backtracks
        assert backtracks > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_node_memory_is_the_accepted_stacked_metric(self, mode):
        problem = shards("ls")
        config = SolverConfig(line_search="monotone")
        state = start_round_state(problem, config)
        for _ in range(3):
            state, _ = consensus_round(problem, state, mode, config)
            assert state.stepsize_state.prev_metric is state.metric
        alpha = state.stepsize_state.prev_alpha
        assert np.shape(alpha) == ((problem.n_nodes,) if mode == "local-bb" else ())

    def test_line_search_error_carries_the_round_index(self):
        problem = scalar_curvature_problem([1.0, 3.0], dim=3)
        config = SolverConfig(max_backtracks=0)
        state = start_round_state(problem, config)
        # a zero step pair falls back to prev_alpha; a stepsize of 1e3 on
        # curvatures 1 and 3 overshoots, so the round must backtrack
        state.x_prev = state.x
        state.grad_prev = state.grad
        state.stepsize_state.prev_alpha = 1e3
        with pytest.raises(LineSearchError) as info:
            consensus_round(problem, state, "local-bb", config)
        assert info.value.iteration == state.iteration == 1

    def test_grad_map_stop_rule_is_honoured(self):
        problem = shards("ls")
        config = SolverConfig(stop_rule="grad-map", eps_tol=1e-3)
        res = solve_consensus(problem, np.zeros(6), "local-dbb", config)
        assert res.status == CONVERGED
        forward = solve_consensus(
            problem, np.zeros(6), "local-dbb",
            dataclasses.replace(config, stop_rule="forward-step"),
        )
        assert forward.iterations != res.iterations
        # replay: the run ends at the first round whose relative U-scaled
        # step ||U (x^k - x^{k+1})|| / max(1, ||x^{k+1}||) is within eps_tol
        f, g = problem.stacked(), Consensus(problem.n_nodes)
        state, _ = warmup_step(f, g, np.zeros(6 * problem.n_nodes), config)
        for rounds in range(2, res.iterations + 1):
            state, _ = consensus_round(problem, state, "local-dbb", config)
            step = np.linalg.norm(state.metric.apply(state.x_prev - state.x))
            stopped = step / max(1.0, np.linalg.norm(state.x)) <= config.eps_tol
            assert stopped == (rounds == res.iterations)
        assert res.z.tobytes() == state.x[:6].tobytes()


class TestSharedDriver:
    @pytest.mark.parametrize("stop_rule", ["forward-step", "grad-map"])
    @pytest.mark.parametrize("line_search_mode", ["nonmonotone", "monotone", "off"])
    @pytest.mark.parametrize("loss", ["ls", "logistic"])
    @pytest.mark.parametrize("m", [1, 3, 7])
    @pytest.mark.parametrize("mode, method", [("global-dbb", "vmpg-dbb"),
                                              ("global-bb", "pg-bb")])
    def test_global_modes_are_solve_on_the_stacked_problem(
        self, mode, method, m, loss, line_search_mode, stop_rule
    ):
        """A global mode is solve's method on (stacked f, Consensus prox), bitwise."""
        config = SolverConfig(
            line_search=line_search_mode, stop_rule=stop_rule, eps_tol=1e-6, max_iter=150
        )
        for seed in range(3):
            problem = split_regression(
                generate_regression(n_samples=70, dim=6, loss=loss, seed=seed), m, 1e-2
            )
            x0 = np.full(6, 0.1)
            got = solve_consensus(problem, x0, mode, config)
            want = solve(problem.stacked(), Consensus(m), np.tile(x0, m),
                         dataclasses.replace(config, method=method))
            assert got.status == want.status
            assert got.iterations == want.iterations
            assert got.z.tobytes() == want.x[:6].tobytes()
            # bytes_exchanged dropped: solve's records lack it
            assert [record_digest(r, drop=("bytes_exchanged",)) for r in got.trace] == [
                record_digest(r) for r in want.trace
            ]


class TestLayerBoundaries:
    """A tracer measures the consensus layers from outside, by replacing the
    module attributes vmpg.consensus.consensus_round, vmpg.consensus.Consensus,
    vmpg.solver.line_search and the BB rules vmpg.solver.diagonal_bb and
    vmpg.solver.hybrid_bb; a solve must still reach each through them."""

    def test_every_round_of_every_mode_looks_its_rule_up_in_the_solver(self, monkeypatch):
        calls = {"diagonal_bb": 0, "hybrid_bb": 0}

        def counting(name):
            rule = getattr(vmpg.solver, name)

            def call(*args):
                calls[name] += 1
                return rule(*args)
            return call

        for name in calls:
            monkeypatch.setattr(vmpg.solver, name, counting(name))
        problem = split_regression(generate_regression(90, 6, "ls", 4), 5, 1e-2)
        config = SolverConfig(eps_tol=1e-12, max_iter=30)
        for mode in MODES:
            calls.update(diagonal_bb=0, hybrid_bb=0)
            res = solve_consensus(problem, np.zeros(6), mode, config)
            rule = "diagonal_bb" if mode.endswith("dbb") else "hybrid_bb"
            assert res.iterations > 2
            assert calls == {**{name: 0 for name in calls},
                             rule: res.iterations - 1}  # the warm-up is no round

    def test_rounds_prox_and_line_search_go_through_the_module(self, monkeypatch):
        rounds, built, prox_owners, searches = [], [], [], []
        round_fn, search = vmpg.consensus.consensus_round, vmpg.solver.line_search
        prox = Consensus.prox

        def build(n_blocks):
            built.append(Consensus(n_blocks))
            return built[-1]

        monkeypatch.setattr(vmpg.consensus, "consensus_round",
                            lambda *args: rounds.append(1) or round_fn(*args))
        monkeypatch.setattr(vmpg.consensus, "Consensus", build)
        monkeypatch.setattr(Consensus, "prox", lambda self, v, metric:
                            prox_owners.append(self) or prox(self, v, metric))
        monkeypatch.setattr(vmpg.solver, "line_search",
                            lambda *args: searches.append(1) or search(*args))
        config = SolverConfig(line_search="monotone", mu=1e-6, max_iter=40)
        backtracks = 0
        for loss in ("ls", "logistic"):
            problem = split_regression(generate_regression(90, 6, loss, 4), 5, 1e-2)
            for mode in MODES:
                for log in (rounds, built, prox_owners, searches):
                    log.clear()
                res = vmpg.consensus.solve_consensus(problem, np.zeros(6), mode, config)
                assert res.status in (MAX_ITER, CONVERGED)
                tried = sum(r.backtracks for r in res.trace)
                assert len(rounds) == res.iterations - 1  # the warm-up is no round
                assert len(built) == 1
                assert len(prox_owners) == res.iterations + tried
                assert all(g is built[0] for g in prox_owners)
                # backtracks rescale the metric inside one line_search call
                assert len(searches) == res.iterations
                backtracks += tried
        assert backtracks > 0
