import itertools
import logging
import math
import time

import numpy as np
import pytest
from oracles import abs_moment_quad, comonotone_gap_laws, stepwise_coupling_costs

from concentra import (
    REAL_LINE,
    CouplingBound,
    DiscreteMeasure,
    FiniteMetricSpace,
    GaussianKernelModel,
    InputError,
    OUModel,
    ProductSpace,
    TabularModel,
    gaussian_chain_joint,
    recursive_coupling_bound,
    tabular_joint_law,
    transport_inequality_audit,
    wasserstein_1d,
    wasserstein_exact,
    wasserstein_gaussian_w2,
)
from concentra.coupling import _abs_moment, _tabular_cost


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


def test_tabular_audit_runs_and_reports():
    p = TabularModel(np.array([0.5, 0.5]), np.array([[0.7, 0.3], [0.4, 0.6]]))
    q = TabularModel(np.array([0.3, 0.7]), np.array([[0.7, 0.3], [0.4, 0.6]]))
    # generous hypothesis constants: the inequality should hold easily
    report = transport_inequality_audit(p, 0.05, 1.0, 0.5, 2, [q])
    assert report["verdict"] == "pass"
    assert report["entries"][0]["w_exact"] is not None


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
