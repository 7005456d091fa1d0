import itertools
import logging
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import abs_moment_quad, all_cells_transport_lp, comonotone_gap_laws, stepwise_coupling_costs, tabular_state_cost

from concentra import (
    REAL_LINE,
    ARMAModel,
    ContractionNoiseModel,
    CouplingBound,
    DiscreteMeasure,
    FiniteMetricSpace,
    GaussianKernelModel,
    GaussianMeasure,
    InputError,
    OUModel,
    ProductSpace,
    TabularModel,
    gaussian_chain_joint,
    kernel_lipschitz,
    ou_kappa,
    recursive_coupling_bound,
    tabular_joint_law,
    transport_inequality_audit,
    wasserstein_1d,
    wasserstein_exact,
    wasserstein_gaussian_w2,
)
from concentra import coupling
from concentra.coupling import _abs_moment, _coupling, _coupling_paths, _tabular_cost
from concentra.transport import _lp_cost, _TransportModel, cost_matrix


def _random_tabular(rng):
    init = rng.dirichlet(np.ones(2))
    trans = np.vstack([rng.dirichlet(np.ones(2)) for _ in range(2)])
    return TabularModel(init, trans)


def _exact_joint_ws(p, q, n, s):
    pj = tabular_joint_law(p, n, s)
    qj = tabular_joint_law(q, n, s)
    return wasserstein_exact(qj, pj, s, space=qj.space)[0]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("s", [1.0, 2.0])
def test_tabular_bound_dominates_exact(seed, s):
    rng = np.random.default_rng(seed)
    p, q = _random_tabular(rng), _random_tabular(rng)
    for n in (2, 3):
        bound = recursive_coupling_bound(p, q, n, s)
        exact = _exact_joint_ws(p, q, n, s)
        assert bound.upper_bound >= exact - 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_tabular_bound_exact_at_one_step(seed):
    rng = np.random.default_rng(1000 + seed)
    p, q = _random_tabular(rng), _random_tabular(rng)
    for s in (1.0, 2.0):
        bound = recursive_coupling_bound(p, q, 1, s)
        exact = _exact_joint_ws(p, q, 1, s)
        assert bound.upper_bound == pytest.approx(exact, abs=1e-10)


def test_bound_is_zero_for_identical_chains():
    m = TabularModel(np.array([0.4, 0.6]), np.array([[0.7, 0.3], [0.2, 0.8]]))
    bound = recursive_coupling_bound(m, m, 3, 1.0)
    assert bound.upper_bound == 0.0
    g = GaussianKernelModel(0.5, 1.0)
    assert recursive_coupling_bound(g, g, 3, 2.0).upper_bound == 0.0


def test_gaussian_closed_path_geometric_steps():
    p = GaussianKernelModel(0.5, 1.0)
    for gap, steps in ((2.0, (4.0, 1.0, 0.25)), (1.0, (1.0, 0.25, 0.0625))):
        q = GaussianKernelModel(0.5, 1.0, init_mean=gap)
        bound = recursive_coupling_bound(p, q, 3, 2.0)
        assert bound.method == "gaussian-monotone-closed"
        # equal kernels: the gap is deterministic and contracts by theta
        assert bound.step_costs == steps
        assert bound.upper_bound == pytest.approx(math.sqrt(sum(steps)), abs=1e-12)


def _exact_w2(p, q, n):
    return wasserstein_gaussian_w2(gaussian_chain_joint(q, n), gaussian_chain_joint(p, n))


def test_gaussian_discretized_path_tracks_exact_w2():
    p = GaussianKernelModel(0.5, 1.0)
    q = GaussianKernelModel(0.6, 1.2, init_mean=0.5)
    bound = recursive_coupling_bound(p, q, 2, 2.0)
    assert bound.method == "gaussian-monotone-closed"
    exact = _exact_w2(p, q, 2)
    # the step-wise comonotone coupling is not the joint optimum, but close
    assert exact - 1e-12 <= bound.upper_bound <= exact + 0.01
    means, variances = comonotone_gap_laws(q, p, 2)
    assert bound.upper_bound**2 == pytest.approx(math.fsum(means**2 + variances), rel=1e-12)


@pytest.mark.parametrize("s", [1.0, 1.25, 1.5, 1.75, 2.0])
@pytest.mark.parametrize(
    "m, v",
    [(0.0, 0.0), (1.5, 0.0), (-0.3, 0.0), (0.0, 2.0), (0.0, 1e-30), (0.7, 0.3), (-2.0, 1.0),
     (5.0, 0.2), (1e3, 1.0), (-1e4, 1e-2), (3.0, 1e-40)],
)
def test_abs_moment_matches_quadrature(m, v, s):
    assert _abs_moment(m, v, s) == pytest.approx(abs_moment_quad(m, v, s), rel=1e-12, abs=1e-300)


_GRID = [
    GaussianKernelModel(theta, sigma2, init_mean, init_var)
    for theta, sigma2, init_mean, init_var in itertools.product(
        (-0.7, 0.0, 0.5, 1.1), (0.5, 2.0), (0.0, 1.5), (0.3, 1.0)
    )
]


def test_gaussian_bound_dominates_exact_w2_on_grid():
    """s = 2: the comonotone cost is >= the Bures W2 of the joint laws,
    equals it at n = 1, and equals |mean gap|^2 + ||A_q - A_p||_F^2.

    Compared as squares: the Bures formula's square root turns a 1e-16
    round-off of W2^2 into 1e-8 when the laws are equal."""
    for p, q in itertools.product(_GRID, repeat=2):
        for n in range(1, 7):
            bound = recursive_coupling_bound(p, q, n, 2.0)
            exact = _exact_w2(p, q, n) ** 2
            tol = 1e-12 * max(1.0, exact)
            assert bound.upper_bound**2 >= exact - tol, (p, q, n)
            if n == 1:
                assert bound.upper_bound**2 == pytest.approx(exact, abs=tol)
            means, variances = comonotone_gap_laws(q, p, n)
            direct = [m * m + v for m, v in zip(means, variances)]
            assert bound.step_costs == pytest.approx(direct, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("s", [1.0, 1.5])
def test_gaussian_steps_match_comonotone_oracle(s):
    for p, q in itertools.combinations(_GRID[::5], 2):
        bound = recursive_coupling_bound(p, q, 4, s)
        means, variances = comonotone_gap_laws(q, p, 4)
        oracle = [abs_moment_quad(m, v, s) for m, v in zip(means, variances)]
        assert bound.step_costs == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_gaussian_repro_pairs_not_below_exact():
    p, q = GaussianKernelModel(0.0, 1.0, init_var=1.0), GaussianKernelModel(0.0, 4.0, init_var=1.0)
    assert recursive_coupling_bound(p, q, 2, 2.0).upper_bound == pytest.approx(1.0, abs=1e-12)
    assert _exact_w2(p, q, 2) == pytest.approx(1.0, abs=1e-12)
    p, q = GaussianKernelModel(0.5, 1.0, init_var=1.0), GaussianKernelModel(0.9, 2.0, init_var=1.0)
    exact = _exact_w2(p, q, 3)
    assert exact == pytest.approx(1.129, abs=1e-3)
    assert recursive_coupling_bound(p, q, 3, 2.0).upper_bound >= exact


@pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
def test_gaussian_overflow_is_input_error_without_numpy_warning(s):
    p, q = GaussianKernelModel(1e200, 1.0), GaussianKernelModel(0.5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="overflows"):
            recursive_coupling_bound(p, q, 4, s)


def test_bound_logs_one_debug_line(caplog):
    p = GaussianKernelModel(0.5, 1.0)
    with caplog.at_level(logging.DEBUG, logger="concentra.coupling"):
        recursive_coupling_bound(p, p, 3, 1.5)
    (record,) = [r for r in caplog.records if r.name == "concentra.coupling"]
    assert "method=gaussian-monotone-closed n=3 s=1.5" in record.getMessage()


def test_ou_models_are_accepted():
    p = OUModel(1.0, 0.5)
    q = OUModel(1.0, 0.5, x0=1.0)
    bound = recursive_coupling_bound(p, q, 2, 2.0)
    assert bound.upper_bound > 0


def test_ou_bound_and_audit_match_the_gaussian_kernel():
    """OU chains give the step costs and audit entries of the Gaussian
    kernels built from ou_kappa, bit for bit."""
    def kernel(m):
        c = ou_kappa(m.rho, m.tau, 1, m.x0)
        return GaussianKernelModel(c["theta"], c["sigma2"], c["theta"] * m.x0, c["sigma2"])

    p = OUModel(1.0, 0.5)
    perturbs = [OUModel(0.7, 0.3, x0=1.0), OUModel(1.0, 0.5, x0=-0.5)]
    for s in (1.0, 1.5, 2.0):
        for q in perturbs:
            want = recursive_coupling_bound(kernel(p), kernel(q), 5, s)
            for pair in ((p, q), (p, kernel(q)), (kernel(p), q)):
                got = recursive_coupling_bound(*pair, 5, s)
                assert (got.upper_bound, got.step_costs) == (want.upper_bound, want.step_costs)
        got = transport_inequality_audit(p, 1.0, s, 0.25, 4, perturbs)
        assert got == transport_inequality_audit(kernel(p), 1.0, s, 0.25, 4, [kernel(q) for q in perturbs])


def test_invalid_inputs_rejected():
    p = GaussianKernelModel(0.5, 1.0)
    m = TabularModel(np.array([1.0, 0.0]), np.eye(2))
    with pytest.raises(InputError):
        recursive_coupling_bound(p, m, 2, 1.0)
    with pytest.raises(InputError):
        recursive_coupling_bound(p, p, 0, 1.0)
    with pytest.raises(InputError):
        recursive_coupling_bound(p, p, 2, 2.5)
    with pytest.raises(InputError):
        CouplingBound(1.0, (0.5, 0.2), 1.0, "x")


def test_gaussian_audit_mean_shifts_pass():
    p = GaussianKernelModel(0.5, 1.0)
    perturbs = [GaussianKernelModel(0.5, 1.0, init_mean=c) for c in (-1.0, 0.5, 2.0)]
    report = transport_inequality_audit(p, 1.0, 2.0, 0.25, 3, perturbs)
    assert report["verdict"] == "pass"
    assert report["worst_slack"] <= 1e-6
    assert len(report["entries"]) == 3
    for e in report["entries"]:
        assert e["w_exact"] is not None  # closed form used at s = 2
        assert e["entropy"] >= 0.0


@pytest.mark.parametrize("builder", ["gaussian_chain_joint", "tabular_joint_law"])
def test_audit_builds_the_reference_law_once(monkeypatch, builder):
    """One joint law per perturbation plus one for the reference chain P."""
    if builder == "gaussian_chain_joint":
        p = GaussianKernelModel(0.5, 1.0)
        perturbs = [GaussianKernelModel(0.5, 1.0, init_mean=c) for c in (-1.0, 0.5, 2.0)]
    else:
        p = TabularModel(np.array([0.5, 0.5]), np.array([[0.7, 0.3], [0.4, 0.6]]))
        perturbs = [TabularModel(np.array([w, 1.0 - w]), p.transition) for w in (0.3, 0.8)]
    calls = []
    build = getattr(coupling, builder)
    monkeypatch.setattr(coupling, builder, lambda *args: calls.append(args[0]) or build(*args))
    transport_inequality_audit(p, 1.0, 2.0, 0.25, 3, perturbs)
    assert len(calls) == len(perturbs) + 1
    assert sum(model is p for model in calls) == 1


def test_tabular_audit_runs_and_reports():
    p = TabularModel(np.array([0.5, 0.5]), np.array([[0.7, 0.3], [0.4, 0.6]]))
    q = TabularModel(np.array([0.3, 0.7]), np.array([[0.7, 0.3], [0.4, 0.6]]))
    # generous hypothesis constants: the inequality should hold easily
    report = transport_inequality_audit(p, 0.05, 1.0, 0.5, 2, [q])
    assert report["verdict"] == "pass"
    assert report["entries"][0]["w_exact"] is not None
    lp = report["entries"][0]["lp"]
    assert set(lp) == {"rounds", "iterations", "columns"} and lp["rounds"] >= 1 and lp["columns"] >= 1
    # equal laws at s = 1 keep every atom in place: no LP runs
    same = transport_inequality_audit(p, 0.05, 1.0, 0.5, 2, [p])["entries"][0]
    assert same["w_exact"] == 0.0 and same["lp"] == {"rounds": 0, "iterations": 0, "columns": 0}


def test_tabular_cost_uses_the_joint_law_metric():
    labelled = TabularModel(np.array([0.2, 0.3, 0.5]), np.eye(3), labels=(0.5, -1.0, 2.25))
    lab = np.asarray(labelled.labels)
    assert np.array_equal(_tabular_cost(labelled, labelled, 1.5), np.abs(lab[:, None] - lab[None, :]) ** 1.5)
    plain = TabularModel(np.array([0.2, 0.3, 0.5]), np.eye(3))
    idx = np.arange(3.0)
    assert np.array_equal(_tabular_cost(plain, plain, 2.0), np.abs(idx[:, None] - idx[None, :]) ** 2.0)


def test_tabular_chains_on_different_state_spaces_rejected():
    kernel = np.full((2, 2), 0.5)
    p = TabularModel(np.array([1.0, 0.0]), kernel, labels=(0.0, 1.0))
    q = TabularModel(np.array([0.0, 1.0]), kernel, labels=(0.0, 5.0))
    plain = TabularModel(np.array([0.0, 1.0]), kernel)
    for a, b in ((p, q), (p, plain)):
        for args in ((a, b), (b, a)):
            with pytest.raises(InputError):
                recursive_coupling_bound(*args, 2, 1.0)


@pytest.mark.parametrize("seed", range(40))
def test_unlabeled_tabular_audit_bound_dominates_exact(seed):
    rng = np.random.default_rng(seed)

    def chain():
        return TabularModel(rng.dirichlet(np.ones(3)), np.vstack([rng.dirichlet(np.ones(3)) for _ in range(3)]))

    p, q = chain(), chain()
    s = (1.0, 1.5, 2.0)[seed % 3]
    entry = transport_inequality_audit(p, 1.0, s, 0.5, 3, [q])["entries"][0]
    assert entry["w_exact"] <= entry["w_coupling_bound"] + 1e-9


_KINDS = ("sorted-labels", "unsorted-labels", "unlabeled", "finite-space")


def _chain_pair(rng, kind):
    """Two random chains on one state space, with some zero transitions."""
    k = int(rng.integers(2, 8))
    labels = space = None
    if kind == "sorted-labels":
        labels = np.sort(rng.uniform(0.0, k, k))
    elif kind == "unsorted-labels":
        labels = rng.uniform(0.0, k, k)
    elif kind == "finite-space":
        pts = rng.normal(size=(k, 2))
        space = FiniteMetricSpace(tuple(range(k)), np.linalg.norm(pts[:, None] - pts[None], axis=-1))

    def chain():
        trans = rng.dirichlet(np.ones(k), size=k)
        trans[rng.random((k, k)) < 0.3] = 0.0
        trans[np.arange(k), rng.integers(0, k, k)] += 0.1
        return TabularModel(rng.dirichlet(np.ones(k)), trans / trans.sum(axis=1, keepdims=True),
                            labels=labels, space=space)

    return chain(), chain()


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", _KINDS)
def test_pair_chain_matches_stepwise_oracle(kind, seed):
    """The pair-chain bound against a per-pair dense-LP recursion. At
    s = 1 on a line the optimal plan is not unique, so only the first step
    (exact W_1) and domination of the exact joint W_1 are checked there."""
    rng = np.random.default_rng([seed, _KINDS.index(kind)])
    q, p = _chain_pair(rng, kind)
    n = int(rng.integers(1, 6))
    for s in (1.0, 1.5, 2.0):
        bound = recursive_coupling_bound(p, q, n, s)
        if s > 1.0 or kind == "finite-space":
            oracle = stepwise_coupling_costs(q, p, n, s)
            assert bound.step_costs == pytest.approx(oracle, rel=1e-12, abs=1e-14), (kind, s)
            continue
        positions = q.labels if q.labels is not None else range(q.n_states)
        first = wasserstein_1d(DiscreteMeasure(tuple(positions), q.init),
                               DiscreteMeasure(tuple(positions), p.init), 1.0)
        assert bound.step_costs[0] == pytest.approx(first, rel=1e-12, abs=1e-15)
        if q.n_states**n <= 256:
            exact = _exact_joint_ws(p, q, n, 1.0)
            assert bound.upper_bound >= exact - 1e-9


def test_labelled_joint_law_matches_label_valued_law():
    """Index tuples on the label metric give the W_s of label tuples on the line."""
    rng = np.random.default_rng(5)
    labels = (0.5, -1.0, 2.25, 0.1)
    chains = [TabularModel(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4), size=4), labels=labels)
              for _ in range(2)]
    n = 3
    for s in (1.0, 1.5, 2.0):
        by_hand = []
        for m in chains:
            support, weights = [], []
            for path in itertools.product(range(4), repeat=n):
                w = m.init[path[0]]
                for a, b in zip(path, path[1:]):
                    w *= m.transition[a, b]
                support.append(tuple(labels[i] for i in path))
                weights.append(w)
            by_hand.append(DiscreteMeasure(tuple(support), np.array(weights), space=ProductSpace(REAL_LINE, n, s)))
        joint = [tabular_joint_law(m, n, s) for m in chains]
        assert joint[0].support[0] == (0, 0, 0)
        assert wasserstein_exact(*joint, s)[0] == pytest.approx(wasserstein_exact(*by_hand, s)[0], rel=1e-12)


def test_full_chain_audit_rejects_large_joint_law_fast():
    p = TabularModel(np.full(10, 0.1), np.full((10, 10), 0.1))
    t0 = time.perf_counter()
    with pytest.raises(InputError):
        transport_inequality_audit(p, 1.0, 1.0, 0.5, 9, [p])
    assert time.perf_counter() - t0 < 1.0


def _audit_pair(kind, k, seed):
    """Two random k-state chains with dense kernels on one state space: a
    labelled line or a declared finite space of plane points."""
    rng = np.random.default_rng(seed)
    labels = space = None
    if kind == "labelled-line":
        labels = tuple(rng.uniform(0.0, k, k))
    else:
        pts = rng.normal(size=(k, 2))
        space = FiniteMetricSpace(tuple(range(k)), np.linalg.norm(pts[:, None] - pts[None], axis=-1))

    def chain():
        kernel = np.vstack([rng.dirichlet(np.ones(k)) for _ in range(k)])
        return TabularModel(rng.dirichlet(np.ones(k)), kernel, labels=labels, space=space)

    return chain(), chain()


_AUDIT_SIZES = [(2, 3), (3, 5), (4, 4)]


@pytest.mark.parametrize("kind", ["labelled-line", "finite-space"])
@pytest.mark.parametrize("k, n", _AUDIT_SIZES)
def test_markov_coupling_on_its_seed_couples_the_joint_laws(kind, k, n):
    """The step-optimal coupling's path-pair masses reproduce both joint
    laws and cost exactly the coupling bound."""
    p, q = _audit_pair(kind, k, 7 * k + n)
    for s in (1.0, 1.5, 2.0):
        qj, pj = tabular_joint_law(q, n, s), tabular_joint_law(p, n, s)
        bound, plans = _coupling(p, q, n, s)
        rows, cols, masses = _coupling_paths(plans, n, k, qj, pj)
        mass = np.zeros((len(qj), len(pj)))
        np.add.at(mass, (rows, cols), masses)
        assert np.max(np.abs(mass.sum(axis=1) - qj.weights)) <= 1e-15
        assert np.max(np.abs(mass.sum(axis=0) - pj.weights)) <= 1e-15
        cost = qj.space.pairwise(qj.support, pj.support) ** s
        assert math.fsum((mass * cost).ravel()) == pytest.approx(bound.upper_bound**s, rel=1e-12)


@pytest.mark.parametrize("kind", ["labelled-line", "finite-space"])
@pytest.mark.parametrize("k, n", _AUDIT_SIZES)
@pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
def test_coupling_seeded_joint_law_lp_is_exact(kind, k, n, s):
    """The joint-law LP started from the coupling's support, the same LP
    started from the shortlists and the LP over every cell agree, also at
    s = 1 where the audit cuts the seed to the LP left after the shared
    mass stays in place."""
    p, q = _audit_pair(kind, k, 7 * k + n)
    qj, pj = tabular_joint_law(q, n, s), tabular_joint_law(p, n, s)
    seed = np.zeros((len(qj), len(pj)), dtype=bool)
    seed[_coupling_paths(_coupling(p, q, n, s)[1], n, k, qj, pj)[:2]] = True
    cost = cost_matrix(qj, pj, s, qj.space)  # the audit's cost
    want, _ = all_cells_transport_lp(cost, qj.weights, pj.weights)
    seeded = _lp_cost(cost, qj.weights, pj.weights, s, seed)[0]
    for value in (seeded, _TransportModel(cost).solve(qj.weights, pj.weights, seed)[0],
                  _lp_cost(cost, qj.weights, pj.weights, s)[0]):
        assert value == pytest.approx(want, rel=1e-12)
    entry = transport_inequality_audit(p, 1.0, s, 0.5, n, [q])["entries"][0]
    assert entry["w_exact"] == max(seeded, 0.0) ** (1.0 / s)


@pytest.mark.parametrize("s", [1.0, 1.5])
def test_audit_of_a_sparse_chain_on_many_states_stays_small(s):
    """The coupling's path pairs come from its flat kernel, not a dense
    (S^2) x (S^2) one, and the pair plans keep only charged cells: two
    200-state chains that each step to a neighbour on a ring audit at n = 2
    in a few MB of NumPy memory, with the exact distance of the shortlist
    start."""
    rng = np.random.default_rng(5)
    k = 200

    def chain():
        kernel = np.zeros((k, k))
        up = rng.uniform(0.2, 0.8, k)
        kernel[np.arange(k), (np.arange(k) + 1) % k] = up
        kernel[np.arange(k), (np.arange(k) - 1) % k] = 1.0 - up
        return TabularModel(rng.dirichlet(np.ones(k)), kernel)

    p, q = chain(), chain()
    tracemalloc.start()
    try:
        entry = transport_inequality_audit(p, 1.0, s, 0.5, 2, [q])["entries"][0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    qj, pj = tabular_joint_law(q, 2, s), tabular_joint_law(p, 2, s)
    want = _lp_cost(qj.space.pairwise(qj.support, pj.support) ** s, qj.weights, pj.weights, s)[0]
    assert entry["w_exact"] == pytest.approx(max(want, 0.0) ** (1.0 / s), rel=1e-12)


@pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
def test_kernel_lipschitz_of_gaussian_and_ou_chains_is_abs_theta(s):
    for theta in (0.7, -0.6, 1.3, -2.0, 0.0):
        assert kernel_lipschitz(GaussianKernelModel(theta, 0.5, 1.0, 2.0), s) == abs(theta)
    for rho, tau, x0 in ((1.0, 0.5, 0.3), (0.0, 0.7, -1.2), (-0.4, 0.2, 1.0)):
        ou = OUModel(rho, tau, x0)
        assert kernel_lipschitz(ou, s) == abs(ou.theta)


@pytest.mark.parametrize("seed", range(4))
def test_kernel_lipschitz_of_an_arma_chain_is_the_spectral_norm(seed):
    """||A||_2, attained at A's top right singular vector v: the laws
    N(A v, B B^T) and N(0, B B^T) are |A v| apart in W_2."""
    rng = np.random.default_rng(seed)
    m = 1 + seed
    model = ARMAModel(rng.normal(size=(m, m)), rng.normal(size=(m, m)))
    got = kernel_lipschitz(model, 2.0)
    assert got == np.linalg.norm(model.A, 2)
    for s in (1.0, 1.5):
        assert kernel_lipschitz(model, s) == got
    v = np.linalg.svd(model.A)[2][0]
    noise = model.B @ model.B.T
    w2 = wasserstein_gaussian_w2(GaussianMeasure(model.A @ v, noise), GaussianMeasure(np.zeros(m), noise))
    assert w2 == pytest.approx(got, rel=1e-12)


def _lipschitz_chain(kind, k, rng):
    """A k-state chain with sparse random rows, unlabelled, labelled or on
    a declared finite space of plane points."""
    rows = rng.dirichlet(np.ones(k), size=k) * (rng.random((k, k)) < 0.7)
    rows[np.arange(k), rng.integers(0, k, k)] += 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    labels = space = None
    if kind == "labelled":
        labels = tuple(rng.permutation(k) + rng.uniform(0.0, 0.9, k))
    elif kind == "finite":
        pts = rng.normal(size=(k, 2))
        space = FiniteMetricSpace(tuple(range(k)), np.linalg.norm(pts[:, None] - pts[None], axis=-1))
    return TabularModel(np.full(k, 1.0 / k), rows, labels=labels, space=space)


def _pair_loop_lipschitz(model, s):
    """max over state pairs i != j of W_s(P_i, P_j) / d(i, j), one
    ``wasserstein_exact`` per pair."""
    space, states = model.state_space, np.arange(model.n_states)
    ratios = [
        wasserstein_exact(DiscreteMeasure(states, model.transition[i], space),
                          DiscreteMeasure(states, model.transition[j], space), s)[0] / space.distance(i, j)
        for i, j in itertools.permutations(range(model.n_states), 2)
    ]
    return max(ratios)


@pytest.mark.parametrize("kind", ["unlabelled", "labelled", "finite"])
@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
def test_kernel_lipschitz_of_a_tabular_chain_is_the_pair_loop_max(kind, k, s):
    """The finite max over every state pair, so no subset of probe pairs
    can exceed it."""
    for seed in range(3):
        model = _lipschitz_chain(kind, k, np.random.default_rng(100 * k + seed))
        assert kernel_lipschitz(model, s) == pytest.approx(_pair_loop_lipschitz(model, s), rel=1e-12)


def test_kernel_lipschitz_on_a_finite_space_solves_each_unordered_pair_once(monkeypatch):
    """W_s is symmetric and 0 on the diagonal, so 30 states need 435 LPs,
    not 900; the value is the max over every ordered pair of the
    all-cells LP."""
    s = 1.5
    model = _lipschitz_chain("finite", 30, np.random.default_rng(30))
    solve, calls = _TransportModel.solve, []

    def counted(self, *args, **kwargs):
        calls.append(None)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(_TransportModel, "solve", counted)
    got = kernel_lipschitz(model, s)
    assert len(calls) == 30 * 29 // 2
    cost = tabular_state_cost(model, s)
    d = model.state_space.dist
    want = max(all_cells_transport_lp(cost, model.transition[i], model.transition[j])[0] ** (1 / s) / d[i, j]
               for i, j in itertools.permutations(range(30), 2))
    assert got == pytest.approx(want, rel=1e-12)


def test_kernel_lipschitz_edge_and_error_cases():
    identity = TabularModel([0.5, 0.5], np.eye(2), labels=(0, 1))
    for s in (1.0, 1.5, 2.0):
        assert kernel_lipschitz(identity, s) == 1.0
        # one state: no pair of states, and the constant kernel is 0-Lipschitz
        assert kernel_lipschitz(TabularModel([1.0], [[1.0]]), s) == 0.0
    # states 0 and 1 share a label: equal rows, or rows that move mass only
    # between them, are skipped; rows W_s apart at distance 0 raise
    rows = [[0.2, 0.3, 0.5], [0.2, 0.3, 0.5], [0.0, 0.0, 1.0]]
    # pair (0, 2) moves mass 0.5 by 2: W_s = 0.5^(1/s) 2
    assert kernel_lipschitz(TabularModel(np.full(3, 1 / 3), rows, labels=(0, 0, 2)), 1.5) == pytest.approx(
        0.5 ** (1 / 1.5), rel=1e-15)
    rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    assert kernel_lipschitz(TabularModel(np.full(3, 1 / 3), rows, labels=(0, 0, 2)), 2.0) == 1.0
    rows = [[0.2, 0.3, 0.5], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]
    pseudo = FiniteMetricSpace("abc", [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    for labels, space in (((0, 0, 2), None), (None, pseudo)):
        with pytest.raises(InputError, match="states 0 and 1 are at distance 0"):
            kernel_lipschitz(TabularModel(np.full(3, 1 / 3), rows, labels=labels, space=space), 1.0)
    noise = ContractionNoiseModel(np.tanh, 1.0, lambda rng, size: rng.standard_normal(size),
                                  lambda rng, size: rng.standard_normal(size))
    with pytest.raises(InputError, match="contraction_noise"):
        kernel_lipschitz(noise, 1.0)
    for bad in (0.5, 2.5, math.nan, math.inf):
        for model in (identity, GaussianKernelModel(0.5, 1.0), noise):
            with pytest.raises(InputError, match="^s must be in"):
                kernel_lipschitz(model, bad)
