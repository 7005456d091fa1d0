import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.optimize import linprog

from concentra import (
    REAL_LINE,
    DiscreteMeasure,
    FiniteMetricSpace,
    GaussianKernelModel,
    GaussianMeasure,
    InputError,
    ProductSpace,
    SolverError,
    TabularModel,
    TransportPlan,
    gaussian_chain_joint,
    kantorovich_dual_w1,
    solve_transport_lp,
    tabular_joint_law,
    wasserstein_1d,
    wasserstein_exact,
    wasserstein_gaussian_w2,
)
from concentra import transport
from concentra.measures import _LabelLine
from concentra.transport import _TransportModel

import oracles


def brute_force_w1_2x2(w_mu, w_nu, d):
    """Oracle: exhaust the one free parameter of a 2x2 coupling."""
    lo = max(0.0, w_mu[0] - w_nu[1])
    hi = min(w_mu[0], w_nu[0])
    best = math.inf
    for t in np.linspace(lo, hi, 100001):
        plan = np.array([[t, w_mu[0] - t], [w_nu[0] - t, w_mu[1] - w_nu[0] + t]])
        best = min(best, float((plan * d).sum()))
    return best


def test_w1_two_point_oracle():
    mu = DiscreteMeasure((0.0, 1.0), np.array([0.75, 0.25]))
    nu = DiscreteMeasure((0.0, 1.0), np.array([0.5, 0.5]))
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    oracle = brute_force_w1_2x2([0.75, 0.25], [0.5, 0.5], d)
    assert oracle == pytest.approx(0.25, abs=1e-9)
    value, plan = wasserstein_exact(mu, nu, 1.0)
    assert value == pytest.approx(0.25, abs=1e-10)
    plan.validate(d)


def test_plan_marginals_and_cost_consistency():
    rng = np.random.default_rng(5)
    mu = DiscreteMeasure(tuple(rng.normal(size=5)), rng.dirichlet(np.ones(5)))
    nu = DiscreteMeasure(tuple(rng.normal(size=4)), rng.dirichlet(np.ones(4)))
    value, plan = wasserstein_exact(mu, nu, 1.5)
    plan.validate()
    assert value >= 0.0


def _random_metric(rng, n):
    """Random metric by shortest-path closure of random weights."""
    w = rng.uniform(0.2, 2.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    for k in range(n):
        w = np.minimum(w, w[:, k, None] + w[None, k, :])
    return w


def _broadcast_cost(mu, nu, s):
    x, y = np.array(mu.support, dtype=float), np.array(nu.support, dtype=float)
    return np.abs(x[:, None] - y[None, :]) ** s


@pytest.mark.parametrize("seed", range(20))
def test_quantile_formula_matches_lp(seed):
    """Both real-line routes agree with the LP on a broadcast cost matrix."""
    rng = np.random.default_rng(seed)
    n, m = rng.integers(2, 7), rng.integers(2, 7)
    mu = DiscreteMeasure(tuple(rng.normal(size=n)), rng.dirichlet(np.ones(n)))
    nu = DiscreteMeasure(tuple(rng.normal(size=m)), rng.dirichlet(np.ones(m)))
    for s in (1.0, 1.5, 2.0):
        raw, _ = solve_transport_lp(_broadcast_cost(mu, nu, s), mu.weights, nu.weights)
        lp = max(raw, 0.0) ** (1.0 / s)
        assert wasserstein_1d(mu, nu, s) == pytest.approx(lp, abs=1e-8)
        assert wasserstein_exact(mu, nu, s)[0] == pytest.approx(lp, abs=1e-8)


def _weights_with_zeros(rng, n, zeros):
    w = rng.dirichlet(np.ones(n))
    w[rng.choice(n, min(zeros, n - 1), replace=False)] = 0.0
    return w / w.sum()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=50),
    st.sampled_from([1.0, 1.5, 2.0]),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)
def test_real_line_plan_is_lp_optimal(n, m, s, zeros, seed):
    """The monotone plan is feasible and attains the LP optimum."""
    rng = np.random.default_rng(seed)
    # unsorted supports on a shared grid, so the two measures share atoms
    grid = np.linspace(-3.0, 3.0, 121)
    mu = DiscreteMeasure(tuple(rng.choice(grid, n, replace=False)), _weights_with_zeros(rng, n, zeros))
    nu = DiscreteMeasure(tuple(rng.choice(grid, m, replace=False)), _weights_with_zeros(rng, m, zeros))
    cost = _broadcast_cost(mu, nu, s)
    value, plan = wasserstein_exact(mu, nu, s)
    plan.validate(cost)
    lp, _ = solve_transport_lp(cost, mu.weights, nu.weights)
    assert plan.cost == pytest.approx(lp, abs=1e-9)
    assert value == pytest.approx(max(plan.cost, 0.0) ** (1.0 / s), rel=1e-12)


def _dense_lp(cost, w_row, w_col):
    """Oracle: the transportation LP over every cell, with the full
    Kronecker-product constraint matrix. The default 1e-7 feasibility
    tolerances shift the optimum by ~1e-7 when weights span many orders of
    magnitude, so both are tightened to 1e-10."""
    n, m = cost.shape
    a_eq = sparse.vstack(
        [sparse.kron(sparse.eye(n), np.ones((1, m))), sparse.kron(np.ones((1, n)), sparse.eye(m))]
    )
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([w_row, w_col]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return res.fun


def _check_against_dense_lp(cost, w_row, w_col, s):
    value, plan = solve_transport_lp(cost, w_row, w_col)
    n, m = cost.shape
    mu = DiscreteMeasure(tuple(range(n)), w_row)
    nu = DiscreteMeasure(tuple(range(m)), w_col)
    TransportPlan(mu, nu, plan, value, s).validate(cost)
    assert value == pytest.approx(_dense_lp(cost, w_row, w_col), rel=1e-12, abs=1e-12)


def test_column_generation_matches_full_lp():
    """Over 210 x 200 plane points, column generation attains a dense LP's optimum."""
    rng = np.random.default_rng(3)
    n, m = 210, 200
    p, q = rng.normal(size=(n, 2)), rng.normal(size=(m, 2))
    mu = DiscreteMeasure(tuple(map(tuple, p)), _weights_with_zeros(rng, n, 3))
    nu = DiscreteMeasure(tuple(map(tuple, q)), _weights_with_zeros(rng, m, 2))
    cost = np.abs(p[:, None, :] - q[None, :, :]).sum(axis=-1)
    _, plan = wasserstein_exact(mu, nu, 1.0)
    plan.validate(cost)
    assert plan.cost == pytest.approx(_dense_lp(cost, mu.weights, nu.weights), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
    st.sampled_from([1.0, 1.5, 2.0]),
    st.integers(min_value=0, max_value=5),
    st.sampled_from(["plane", "grid", "line"]),
    st.integers(min_value=0, max_value=10_000),
)
@example(1, 37, 1.0, 0, "plane", 0)
@example(45, 1, 2.0, 3, "grid", 1)
@example(60, 60, 1.5, 5, "grid", 2)
@example(60, 55, 1.0, 2, "line", 3)
def test_solve_transport_lp_matches_dense_lp(n, m, s, zeros, points, seed):
    """Shortlist column generation attains the dense LP's optimum: wide and
    tall shapes, zero-weight atoms, tied costs from integer grid points,
    and a line whose column atoms sit in a narrow shifted band, where the
    optimum moves mass past each row's cheapest cells."""
    rng = np.random.default_rng(seed)
    if points == "grid":
        p, q = rng.integers(0, 4, size=(n, 2)), rng.integers(0, 4, size=(m, 2))
    elif points == "plane":
        p, q = rng.normal(size=(n, 2)), rng.normal(size=(m, 2))
    else:
        p, q = rng.normal(size=(n, 1)), 0.3 * rng.normal(size=(m, 1)) + 1.5
    cost = np.abs(p[:, None, :] - q[None, :, :]).sum(axis=-1).astype(float) ** s
    _check_against_dense_lp(cost, _weights_with_zeros(rng, n, zeros), _weights_with_zeros(rng, m, zeros), s)


def test_audit_joint_laws_match_dense_lp():
    """The 256 x 256 product-metric joint laws of two 4-state chains over 4
    steps (the exact W_s of the tabular audit), with heavily tied costs."""
    rng = np.random.default_rng(11)
    models = [
        TabularModel(rng.dirichlet(np.ones(4)), np.vstack([rng.dirichlet(np.ones(4)) for _ in range(4)]))
        for _ in range(2)
    ]
    for s in (1.0, 2.0):
        q, p = (tabular_joint_law(model, 4, s) for model in models)
        assert (len(q), len(p)) == (256, 256)
        cost = q.space.pairwise(q.support, p.support) ** s
        _check_against_dense_lp(cost, q.weights, p.weights, s)


def test_solve_transport_lp_is_deterministic():
    rng = np.random.default_rng(4)
    p, q = rng.integers(0, 5, size=(90, 2)), rng.integers(0, 5, size=(80, 2))
    cost = np.abs(p[:, None, :] - q[None, :, :]).sum(axis=-1).astype(float)
    w_row, w_col = _weights_with_zeros(rng, 90, 4), _weights_with_zeros(rng, 80, 4)
    (v1, plan1), (v2, plan2) = (solve_transport_lp(cost, w_row, w_col) for _ in range(2))
    assert v1 == v2
    assert plan1.tobytes() == plan2.tobytes()


@pytest.mark.parametrize("n, full", [(5, True), (60, False)])
def test_solve_transport_lp_logs_one_debug_line(caplog, monkeypatch, n, full):
    """One line per LP. The 60 x 61 LP takes 2 rounds; HiGHS counts each
    hot-started run's iterations from zero, so the line sums every run's."""
    runs = []

    class RecordingHighs(transport._highs._Highs):
        def run(self):
            status = super().run()
            runs.append(self.getInfo().simplex_iteration_count)
            return status

    monkeypatch.setattr(transport._highs, "_Highs", RecordingHighs)
    rng = np.random.default_rng(n)
    cost = rng.uniform(size=(n, n + 1))
    with caplog.at_level(logging.DEBUG, logger="concentra.transport"):
        solve_transport_lp(cost, rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n + 1)))
    (record,) = [r for r in caplog.records if r.name == "concentra.transport"]
    message = record.getMessage()
    assert message.startswith(f"transport LP {n}x{n + 1}: ")
    rounds, cells, iterations, ms = (
        float(part.split()[0]) for part in message.split(": ", 1)[1].split(", ")
    )
    assert (rounds == 1) if full else (rounds >= 2)
    assert (cells == n * (n + 1)) if full else (cells < n * (n + 1))
    assert rounds == len(runs) and iterations == sum(runs)
    # each round after the first prices in a cell of negative reduced cost
    assert iterations >= rounds and ms >= 0
    assert message.endswith("; start=shortlist")
    mask = rng.random(cost.shape) < 0.1
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="concentra.transport"):
        _TransportModel(cost).solve(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n + 1)), mask)
    (record,) = [r for r in caplog.records if r.name == "concentra.transport"]
    assert record.getMessage().endswith(f"; start=coupling cells={np.count_nonzero(mask)}")
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="concentra.transport"):
        solve_transport_lp(cost, np.full(n, 1 / n), np.full(n + 1, 1 / (n + 1)))
    assert not [r for r in caplog.records if r.name == "concentra.transport"]


def _debug_rounds(caplog, solve):
    """Run ``solve`` and return its value and the rounds of its DEBUG line."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="concentra.transport"):
        value = solve()
    (record,) = [r for r in caplog.records if r.name == "concentra.transport"]
    return value, int(record.getMessage().split(": ", 1)[1].split()[0])


@pytest.mark.parametrize("n, m", [(1, 1), (3, 4), (16, 40), (40, 16), (7, 1), (1, 30)])
@pytest.mark.parametrize("points", ["plane", "grid"])
def test_one_round_lp_is_bit_identical_to_linprog(caplog, n, m, points):
    """With a side of at most _SHORTLIST atoms every cell is active from the
    start, so one round solves the LP that ``linprog`` solves over every
    cell, with the same settings: the plan agrees bit for bit."""
    rng = np.random.default_rng(n * 100 + m)
    for s in (1.0, 1.5, 2.0):
        if points == "grid":
            p, q = rng.integers(0, 4, size=(n, 2)), rng.integers(0, 4, size=(m, 2))
        else:
            p, q = rng.normal(size=(n, 2)), rng.normal(size=(m, 2))
        cost = np.abs(p[:, None, :] - q[None, :, :]).sum(axis=-1).astype(float) ** s
        w_row, w_col = _weights_with_zeros(rng, n, 2), _weights_with_zeros(rng, m, 2)
        (value, plan), rounds = _debug_rounds(caplog, lambda: solve_transport_lp(cost, w_row, w_col))
        want_value, want_plan = oracles.all_cells_transport_lp(cost, w_row, w_col)
        assert rounds == 1
        assert plan.tobytes() == want_plan.tobytes() and value == want_value


def _tiny_weights(rng, n):
    """Dirichlet weights with three zeros and three atoms of 1e-14, 1e-13
    and 1e-12 (before normalising)."""
    w = rng.dirichlet(np.ones(n))
    pick = rng.choice(n, 6, replace=False)
    w[pick[:3]] = 0.0
    w[pick[3:]] = (1e-14, 1e-13, 1e-12)
    return w / w.sum()


def test_hot_started_rounds_match_dense_lp_with_tiny_weights(caplog):
    """Weights spanning 1e-14..1 with zeros, the case behind presolve off
    and the 1e-10 tolerances: LPs that take several hot-started rounds
    attain the optimum of the LP over every cell."""
    n, m = 60, 70
    multi = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        p, q = rng.normal(size=(n, 2)), rng.normal(size=(m, 2))
        cost = np.abs(p[:, None, :] - q[None, :, :]).sum(axis=-1)
        w_row, w_col = _tiny_weights(rng, n), _tiny_weights(rng, m)
        (value, plan), rounds = _debug_rounds(caplog, lambda: solve_transport_lp(cost, w_row, w_col))
        mu, nu = DiscreteMeasure(tuple(range(n)), w_row), DiscreteMeasure(tuple(range(m)), w_col)
        TransportPlan(mu, nu, plan, value, 1.0).validate(cost)
        want, _ = oracles.all_cells_transport_lp(cost, w_row, w_col)
        assert value == pytest.approx(want, rel=1e-12, abs=1e-12)
        multi += rounds >= 2
    assert multi >= 6


@pytest.mark.parametrize("n, m", [(6, 6), (30, 35)])
def test_reused_model_matches_cold_solves(n, m):
    """One model solved for pair after pair, hot-started from the last
    optimal basis, agrees row by row with a cold LP per pair."""
    rng = np.random.default_rng(n)
    p, q = rng.normal(size=(n, 2)), rng.normal(size=(m, 2))
    cost = np.sqrt(((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=-1))
    model = _TransportModel(cost)
    w_fixed = _weights_with_zeros(rng, m, 1)
    for k in range(40):
        w_row = _weights_with_zeros(rng, n, k % 3)
        w_col = w_fixed if k % 2 else _weights_with_zeros(rng, m, k % 4)
        value, plan = model.solve(w_row, w_col)
        mu, nu = DiscreteMeasure(tuple(range(n)), w_row), DiscreteMeasure(tuple(range(m)), w_col)
        TransportPlan(mu, nu, plan, value, 1.0).validate(cost)
        want, _ = oracles.all_cells_transport_lp(cost, w_row, w_col)
        assert value == pytest.approx(want, rel=1e-12)


def test_rounds_after_the_first_resolve_by_primal_simplex(monkeypatch):
    """Each solve's first run, after its bounds changed, is dual simplex and
    every later round, which only gained cells, primal simplex; the optimum
    is the LP's over every cell on plane, finite-space and tabular
    joint-law instances, and primal re-solves take fewer iterations."""
    runs = []

    class RecordingHighs(transport._highs._Highs):
        def run(self):
            _, strategy = self.getOptionValue("simplex_strategy")
            status = super().run()
            runs.append((strategy, self.getInfo().simplex_iteration_count))
            return status

    rng = np.random.default_rng(31)
    costs = []
    for s in (1.0, 2.0):
        p, q = rng.normal(size=(70, 2)), rng.normal(size=(80, 2))
        costs.append(np.sqrt(((p[:, None] - q[None]) ** 2).sum(-1)) ** s)
    points = rng.normal(size=(90, 3))
    space = FiniteMetricSpace(tuple(range(90)), np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1)))
    costs.append(space.pairwise(range(0, 60), range(30, 90)) ** 1.5)
    models = [
        TabularModel(rng.dirichlet(np.ones(3)), np.vstack([rng.dirichlet(np.ones(3)) for _ in range(3)]))
        for _ in range(2)
    ]
    for s in (1.0, 1.5):
        q, p = (tabular_joint_law(model, 4, s) for model in models)
        costs.append(q.space.pairwise(q.support, p.support) ** s)
    # three pairs per cost on one model, as check_transport reuses it
    pairs = [[(_weights_with_zeros(rng, cost.shape[0], 2), _weights_with_zeros(rng, cost.shape[1], 2))
              for _ in range(3)] for cost in costs]
    optima = [[oracles.all_cells_transport_lp(cost, *pair)[0] for pair in cost_pairs]
              for cost, cost_pairs in zip(costs, pairs)]
    monkeypatch.setattr(transport._highs, "_Highs", RecordingHighs)
    primal, dual = transport._PRIMAL_SIMPLEX, transport._DUAL_SIMPLEX
    iterations = {}
    for later in (primal, dual):
        monkeypatch.setattr(transport, "_PRIMAL_SIMPLEX", later)
        iterations[later] = 0
        for cost, cost_pairs, cost_optima in zip(costs, pairs, optima):
            model = _TransportModel(cost)
            for (w_row, w_col), want in zip(cost_pairs, cost_optima):
                runs.clear()
                value, _ = model.solve(w_row, w_col)
                assert value == pytest.approx(want, rel=1e-12, abs=1e-14)
                assert [strategy for strategy, _ in runs] == [dual] + [later] * (len(runs) - 1)
                iterations[later] += sum(count for _, count in runs[1:])
    assert 0 < iterations[primal] < iterations[dual]


@pytest.mark.parametrize("n, m", [(3, 4), (30, 40)])
def test_infeasible_marginals_raise_solver_error(n, m):
    """Marginals of different totals leave the LP infeasible: a fresh and a
    reused model raise SolverError naming the HiGHS model status, and the
    reused model still solves the next feasible pair."""
    rng = np.random.default_rng(m)
    cost = rng.uniform(size=(n, m))
    w_row, w_col = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
    with pytest.raises(SolverError, match="HiGHS model status Infeasible"):
        solve_transport_lp(cost, w_row, 2.0 * w_col)
    model = _TransportModel(cost)
    want = model.solve(w_row, w_col)[0]
    with pytest.raises(SolverError, match="HiGHS model status Infeasible"):
        model.solve(w_row, 2.0 * w_col)
    assert model.solve(w_row, w_col)[0] == pytest.approx(want, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_order_monotonicity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    mu = DiscreteMeasure(tuple(rng.normal(size=n)), rng.dirichlet(np.ones(n)))
    nu = DiscreteMeasure(tuple(rng.normal(size=n)), rng.dirichlet(np.ones(n)))
    w1 = wasserstein_1d(mu, nu, 1.0)
    w15 = wasserstein_1d(mu, nu, 1.5)
    w2 = wasserstein_1d(mu, nu, 2.0)
    assert w1 <= w15 + 1e-10
    assert w15 <= w2 + 1e-10


@pytest.mark.parametrize("seed", range(15))
def test_kr_duality_on_random_metric_spaces(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 9))
    space = FiniteMetricSpace(tuple(range(n)), _random_metric(rng, n))
    mu = DiscreteMeasure(tuple(range(n)), rng.dirichlet(np.ones(n)), space=space)
    nu = DiscreteMeasure(tuple(range(n)), rng.dirichlet(np.ones(n)), space=space)
    primal = wasserstein_exact(mu, nu, 1.0)[0]
    dual, potential = kantorovich_dual_w1(mu, nu)
    assert dual == pytest.approx(primal, abs=1e-9)
    # the returned potential is feasible (1-Lipschitz)
    for i in range(n):
        for j in range(n):
            gap = abs(potential[i] - potential[j])
            assert gap <= space.distance(i, j) + 1e-8


def test_identical_measures_are_at_distance_zero():
    mu = DiscreteMeasure((0.0, 1.0, 2.0), np.array([0.2, 0.3, 0.5]))
    assert wasserstein_exact(mu, mu, 2.0)[0] == pytest.approx(0.0, abs=1e-10)
    assert wasserstein_1d(mu, mu, 1.0) == 0.0


def test_gaussian_w2_oracle_values():
    # equal covariance: pure mean shift
    a = GaussianMeasure([0.0], [[1.0]])
    b = GaussianMeasure([3.0], [[1.0]])
    assert wasserstein_gaussian_w2(a, b) == pytest.approx(3.0, abs=1e-12)
    # equal mean 1-D: |sigma - sigma'|
    c = GaussianMeasure([0.0], [[4.0]])
    assert wasserstein_gaussian_w2(a, c) == pytest.approx(1.0, abs=1e-12)
    # commuting 2-D case, hand value
    a2 = GaussianMeasure([0.0, 0.0], np.diag([1.0, 4.0]))
    b2 = GaussianMeasure([1.0, -1.0], np.diag([9.0, 1.0]))
    hand = math.sqrt(2.0 + (3.0 - 1.0) ** 2 + (1.0 - 2.0) ** 2)
    assert wasserstein_gaussian_w2(a2, b2) == pytest.approx(hand, abs=1e-12)


def _random_spd(rng, d):
    g = rng.standard_normal((d, d))
    return g @ g.T / d + 0.05 * np.eye(d)


def test_gaussian_w2_matches_the_sqrtm_oracle():
    """Random positive definite pairs up to dimension 20 against the trace
    of SciPy's Schur-based sqrtm(s1 s2)."""
    rng = np.random.default_rng(20)
    for d in [1, 2, 3, 5, 8, 13, 20] * 4:
        m1, m2 = rng.standard_normal(d), rng.standard_normal(d)
        s1, s2 = _random_spd(rng, d), _random_spd(rng, d)
        got = wasserstein_gaussian_w2(GaussianMeasure(m1, s1), GaussianMeasure(m2, s2))
        assert got == pytest.approx(oracles.gaussian_w2_sqrtm(m1, s1, m2, s2), rel=1e-12, abs=0)


@pytest.mark.parametrize("m1, v1, m2, v2", [
    (0.0, 1.0, 0.0, 4.0), (1.5, 0.25, -2.0, 9.0), (-3.0, 1e-6, 2.0, 1e6), (0.0, 2.0, 1e-3, 3.0), (7.0, 5.0, 7.0, 0.5),
])
def test_gaussian_w2_one_dimensional_closed_form(m1, v1, m2, v2):
    """W2^2 = (m1 - m2)^2 + (sigma1 - sigma2)^2 on the line."""
    got = wasserstein_gaussian_w2(GaussianMeasure([m1], [[v1]]), GaussianMeasure([m2], [[v2]]))
    want = math.sqrt((m1 - m2) ** 2 + (math.sqrt(v1) - math.sqrt(v2)) ** 2)
    assert got == pytest.approx(want, rel=1e-13, abs=0)


def test_gaussian_w2_commuting_covariances():
    """Covariances diagonal in one orthonormal basis Q: W2^2 is
    |m1 - m2|^2 + sum_i (sqrt(a_i) - sqrt(b_i))^2."""
    rng = np.random.default_rng(21)
    for d in (2, 4, 7, 12):
        a, b = rng.uniform(0.1, 10.0, d), rng.uniform(0.1, 10.0, d)
        m1, m2 = rng.standard_normal(d), rng.standard_normal(d)
        want = math.sqrt(float(np.sum((m1 - m2) ** 2) + np.sum((np.sqrt(a) - np.sqrt(b)) ** 2)))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        for basis in (np.eye(d), q):
            s1, s2 = (basis * a) @ basis.T, (basis * b) @ basis.T
            got = wasserstein_gaussian_w2(GaussianMeasure(m1, s1), GaussianMeasure(m2, s2))
            assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_gaussian_w2_is_zero_between_equal_laws():
    joint = gaussian_chain_joint(GaussianKernelModel(-0.7, 0.5, 0.0, 0.3), 2)
    assert wasserstein_gaussian_w2(joint, joint) == 0.0
    cov = [[1.0, 0.3], [0.3, 2.0]]
    assert wasserstein_gaussian_w2(GaussianMeasure([0.0, 0.0], cov), GaussianMeasure([0.0, 0.0], cov)) == 0.0
    # a different law stays above the round-off floor
    shifted = GaussianMeasure([0.0, 1e-6], cov)
    assert wasserstein_gaussian_w2(GaussianMeasure([0.0, 0.0], cov), shifted) > 0.0


def test_gaussian_w2_vs_discretized_lp():
    g1 = GaussianMeasure([0.0], [[1.0]])
    g2 = GaussianMeasure([1.0], [[2.25]])
    closed = wasserstein_gaussian_w2(g1, g2)

    def discretize(mean, var, pts=400):
        sd = math.sqrt(var)
        xs = np.linspace(mean - 6 * sd, mean + 6 * sd, pts)
        w = np.exp(-((xs - mean) ** 2) / (2 * var))
        return DiscreteMeasure(tuple(xs), w / w.sum())

    approx = wasserstein_1d(discretize(0.0, 1.0), discretize(1.0, 2.25), 2.0)
    assert approx == pytest.approx(closed, rel=0.02)


def test_invalid_order_rejected():
    mu = DiscreteMeasure((0.0, 1.0), np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        wasserstein_exact(mu, mu, 0.5)
    with pytest.raises(InputError):
        wasserstein_1d(mu, mu, 3.0)


def test_mismatched_spaces_rejected():
    sp1 = FiniteMetricSpace((0, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))
    sp2 = FiniteMetricSpace((0, 1), np.array([[0.0, 2.0], [2.0, 0.0]]))
    mu = DiscreteMeasure((0, 1), np.array([0.5, 0.5]), space=sp1)
    nu = DiscreteMeasure((0, 1), np.array([0.5, 0.5]), space=sp2)
    with pytest.raises(InputError):
        wasserstein_exact(mu, nu, 1.0)


def test_product_spaces_of_different_order_rejected():
    pts = ((0.0, 0.0), (1.0, 1.0))
    a = DiscreteMeasure(pts, np.array([0.5, 0.5]), space=ProductSpace(REAL_LINE, 2, 1.0))
    b = DiscreteMeasure(pts, np.array([1.0, 0.0]), space=ProductSpace(REAL_LINE, 2, 2.0))
    for mu, nu in ((a, b), (b, a)):
        with pytest.raises(InputError):
            wasserstein_exact(mu, nu, 1.0)
    # equal spaces built separately are the same space
    c = DiscreteMeasure(pts, np.array([1.0, 0.0]), space=ProductSpace(REAL_LINE, 2, 1.0))
    assert wasserstein_exact(a, c, 1.0)[0] == pytest.approx(1.0, abs=1e-10)
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    mu = DiscreteMeasure((0, 1), np.array([0.5, 0.5]), space=FiniteMetricSpace((0, 1), d))
    nu = DiscreteMeasure((0, 1), np.array([1.0, 0.0]), space=FiniteMetricSpace((0, 1), d.copy()))
    assert wasserstein_exact(mu, nu, 1.0)[0] == pytest.approx(0.5, abs=1e-10)


def test_exhaustive_three_point_plans():
    """Oracle: enumerate vertex couplings of a 3x3 instance on a grid."""
    rng = np.random.default_rng(11)
    xs = (0.0, 1.0, 2.5)
    a, b = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
    mu = DiscreteMeasure(xs, a)
    nu = DiscreteMeasure(xs, b)
    d = np.abs(np.subtract.outer(xs, xs))
    best = math.inf
    grid = np.linspace(0, 1, 41)
    # all (p01, p10, p11) for one p00 at a time
    p01, p10, p11 = (v.ravel() for v in np.meshgrid(grid, grid, grid, indexing="ij"))
    for p00 in grid:
        plans = np.stack(
            [
                np.full_like(p01, p00),
                p01,
                a[0] - p00 - p01,
                p10,
                p11,
                a[1] - p10 - p11,
                b[0] - p00 - p10,
                b[1] - p01 - p11,
                a[2] - (b[0] - p00 - p10) - (b[1] - p01 - p11),
            ],
            axis=1,
        )
        feasible = np.all(plans >= -1e-12, axis=1)
        if feasible.any():
            best = min(best, float((plans[feasible] * d.ravel()).sum(axis=1).min()))
    lp = wasserstein_exact(mu, nu, 1.0)[0]
    assert lp <= best + 1e-9


def _pseudo_metric(rng, k):
    """A random metric on k points pulled back to k + 3 points by a map
    that sends three extra points onto existing ones: distinct points at
    distance 0, so rows and columns of the cost hold tied zeros."""
    base = _random_metric(rng, k)
    image = np.concatenate([np.arange(k), rng.integers(0, k, 3)])
    return base[np.ix_(image, image)]


def _w1_pair(rng, space, n, m, overlap, zeros):
    """mu and nu on one pool of ``space`` points: nu equal to mu, on mu's
    support in another order, on part of it, or off it."""
    if space == "plane":
        grid = rng.integers(0, 5, size=(80, 2)) / 2.0
        pool = list(dict.fromkeys(map(tuple, grid.tolist())))
        metric = None
    elif space == "finite":
        metric = FiniteMetricSpace(tuple(range(43)), _pseudo_metric(rng, 40))
        pool = list(range(43))
    else:  # labels with repeats: distinct states at distance 0
        metric = _LabelLine(tuple(rng.integers(0, 12, 50) / 4.0))
        pool = list(range(50))
    idx = rng.permutation(len(pool))
    n = min(n, len(pool) // 2)
    m = min(m, len(pool) // 2)
    rows = idx[:n]
    cols = {"equal": rows, "full": rng.permutation(rows), "none": idx[len(pool) - m:],
            "part": np.concatenate([rows[: (m + 1) // 2], idx[n: n + m // 2]])}[overlap]
    mu = DiscreteMeasure(tuple(pool[i] for i in rows), _weights_with_zeros(rng, len(rows), zeros), space=metric)
    w = mu.weights if overlap == "equal" else _weights_with_zeros(rng, len(cols), zeros)
    nu = DiscreteMeasure(tuple(pool[i] for i in cols), w, space=metric)
    return mu, nu


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["finite", "plane", "labels"]),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.sampled_from(["equal", "full", "part", "none"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=10_000),
)
@example("finite", 20, 20, "full", 0, 0)
@example("labels", 20, 20, "part", 3, 1)
@example("plane", 1, 1, "equal", 0, 2)
def test_w1_with_shared_mass_kept_matches_the_full_lp_and_its_dual(space, n, m, overlap, zeros, seed):
    """At s = 1 the mass left in place plus the reduced LP give the optimum
    of the LP over every cell, with a plan on the full marginals; the
    Kantorovich-Rubinstein value and potential match the primal and the
    dual LP over every pair of points, and the potential is 1-Lipschitz."""
    rng = np.random.default_rng(seed)
    mu, nu = _w1_pair(rng, space, n, m, overlap, zeros)
    cost = transport.cost_matrix(mu, nu, 1.0)
    value, plan = wasserstein_exact(mu, nu, 1.0)
    want, _ = oracles.all_cells_transport_lp(cost, mu.weights, nu.weights)
    assert value == pytest.approx(want, rel=1e-12, abs=1e-12)
    plan.validate(cost)
    assert plan.cost == value
    dual, potential = kantorovich_dual_w1(mu, nu)
    points, c = oracles.joint_charge_by_keys(mu, nu)
    assert list(potential) == points and potential[points[0]] == 0.0
    # one row per joint point, in the potential's order
    dist = mu.resolved_space().pairwise(points, points)
    oracle, _ = oracles.kantorovich_dual_lp(dist, c)
    assert dual == pytest.approx(value, abs=1e-9)
    assert dual == pytest.approx(oracle, abs=1e-9)
    f = np.array([potential[k] for k in points])
    assert np.all(np.abs(f[:, None] - f[None, :]) <= dist + 1e-9)


@pytest.mark.parametrize("factors", [2, 3, 6])
@pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
def test_product_cost_matrix_of_order_s_is_the_sum_of_powers(s, factors):
    """On a product space of order s the cost is sum_k d^s as summed, not
    the s-th power of its s-th root: the fsum of the terms at two factors
    (one rounding), and within one rounding per further factor; at another
    order it stays pairwise ** s. Index points (label lines) and real
    coordinates take different routes to the terms."""
    rng = np.random.default_rng(factors)
    labels = _LabelLine(tuple(np.sort(rng.uniform(0.0, 3.0, 5)).tolist()))
    for base, draw in ((labels, lambda: rng.integers(0, 5, (40, factors))),
                       (REAL_LINE, lambda: rng.normal(0.0, 2.0, (40, factors)))):
        space = ProductSpace(base, factors, s)
        points = [tuple(map(tuple, np.unique(draw(), axis=0).tolist())) for _ in range(2)]
        mu, nu = (DiscreteMeasure(p, np.full(len(p), 1.0 / len(p)), space=space) for p in points)
        x, y = np.asarray(mu.support), np.asarray(nu.support)
        terms = [base.pairwise(x[:, k], y[:, k]) ** s for k in range(factors)]
        want = np.array([[math.fsum(t[i, j] for t in terms) for j in range(len(y))] for i in range(len(x))])
        cost = transport.cost_matrix(mu, nu, s)
        if factors == 2:
            assert np.array_equal(cost, want)
        assert np.all(np.abs(cost - want) <= (factors - 1) * np.finfo(float).eps * want)
        other = ProductSpace(base, factors, 1.0 if s == 2.0 else 2.0)
        assert np.array_equal(transport.cost_matrix(mu, nu, s, other), other.pairwise(mu.support, nu.support) ** s)


def test_shared_mass_moves_at_order_two():
    """1/2 d0 + 1/2 d1 against 1/2 d1 + 1/2 d2: keeping the shared atom in
    place costs 2, shifting all mass by 1 costs 1, so W_2 is 1 (and W_1 is
    1 either way)."""
    line = FiniteMetricSpace((0, 1, 2), np.abs(np.subtract.outer([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])))
    pairs = [
        (DiscreteMeasure((0, 1), [0.5, 0.5], space=line), DiscreteMeasure((1, 2), [0.5, 0.5], space=line)),
        (DiscreteMeasure(((0.0,), (1.0,)), [0.5, 0.5]), DiscreteMeasure(((1.0,), (2.0,)), [0.5, 0.5])),
    ]
    for mu, nu in pairs:
        for s in (1.0, 2.0):
            cost = transport.cost_matrix(mu, nu, s)
            want, _ = oracles.all_cells_transport_lp(cost, mu.weights, nu.weights)
            value, plan = wasserstein_exact(mu, nu, s)
            plan.validate(cost)
            assert want == pytest.approx(1.0, abs=1e-12)
            assert value == pytest.approx(want ** (1.0 / s), rel=1e-12)


def test_no_route_reaches_linprog(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("linprog reached")

    monkeypatch.setattr(transport, "linprog", refuse)
    rng = np.random.default_rng(8)
    for space in ("finite", "plane", "labels"):
        mu, nu = _w1_pair(rng, space, 12, 10, "part", 1)
        for s in (1.0, 1.5, 2.0):
            wasserstein_exact(mu, nu, s)
        kantorovich_dual_w1(mu, nu)
    line = DiscreteMeasure((0.0, 1.0, 3.0), [0.2, 0.3, 0.5])
    wasserstein_exact(line, DiscreteMeasure((1.0, 2.0), [0.5, 0.5]), 1.0)


def test_w1_logs_one_reduction_line(caplog):
    """One line per W1 solve: atoms kept in place, the mass kept and the
    reduced LP's shape; with no mass left to move no LP runs."""
    rng = np.random.default_rng(2)
    p = [tuple(v) for v in rng.normal(size=(8, 2)).tolist()]
    mu = DiscreteMeasure(tuple(p[:6]), [0.1, 0.2, 0.3, 0.1, 0.2, 0.1])
    nu = DiscreteMeasure(tuple(p[3:]), [0.3, 0.1, 0.05, 0.15, 0.4])
    with caplog.at_level(logging.DEBUG, logger="concentra.transport"):
        wasserstein_exact(mu, nu, 1.0)
    lines = [r.getMessage() for r in caplog.records if r.name == "concentra.transport"]
    assert len(lines) == 2 and lines[1].startswith("transport LP 5x3: ")
    # p[3], p[4], p[5] are shared; rows 0, 1, 2, 4, 5 and columns 0, 3, 4 keep mass
    mass = math.fsum([0.1, 0.1, 0.05])
    assert lines[0] == f"W1 reduction 6x5: 3 atoms kept in place, mass {mass:.17g} kept, reduced LP 5x3"
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="concentra.transport"):
        kantorovich_dual_w1(mu, mu)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "concentra.transport"]
    assert line == "W1 reduction 6x6: 6 atoms kept in place, mass 1 kept, reduced LP 0x0"


@pytest.mark.parametrize("mask", ["empty", "random", "all"])
def test_any_starting_mask_gives_the_exact_optimum(mask):
    """A starting mask only changes the first restricted LP: with no cell,
    a random tenth or every cell masked, every order still attains the
    optimum over every cell, and at s = 1 so does the LP left after the
    shared mass of a grid stays in place."""
    rng = np.random.default_rng(17)
    n, m = 60, 70
    p, q = rng.integers(0, 5, size=(n, 2)), rng.integers(0, 5, size=(m, 2))
    dist = np.abs(p[:, None, :] - q[None, :, :]).sum(axis=-1).astype(float)
    cells = {"empty": np.zeros((n, m), dtype=bool), "random": rng.random((n, m)) < 0.1,
             "all": np.ones((n, m), dtype=bool)}[mask]
    w_row, w_col = _weights_with_zeros(rng, n, 3), _weights_with_zeros(rng, m, 3)
    for s in (1.0, 1.5, 2.0):
        cost = dist**s
        want, _ = oracles.all_cells_transport_lp(cost, w_row, w_col)
        model = _TransportModel(cost)
        value, plan = model.solve(w_row, w_col, cells)
        TransportPlan(DiscreteMeasure(tuple(range(n)), w_row), DiscreteMeasure(tuple(range(m)), w_col),
                      plan, value, s).validate(cost)
        assert value == pytest.approx(want, rel=1e-12)
        assert model.stats["columns"] >= np.count_nonzero(cells)
    value, plan, model, _ = transport._w1_transport(dist, w_row, w_col, cells)
    assert model.cost.size < n * m  # shared grid points keep their mass in place
    assert value == pytest.approx(oracles.all_cells_transport_lp(dist, w_row, w_col)[0], rel=1e-12)
