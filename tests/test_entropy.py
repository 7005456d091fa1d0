import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from concentra import (
    ARMAModel,
    DiscreteMeasure,
    GaussianMeasure,
    InputError,
    TabularModel,
    chain_rule_decompose,
    empirical_measure,
    relative_entropy_discrete,
    relative_entropy_gaussian,
    simulate_joint,
    tabular_joint_law,
)
from concentra.entropy import EntropyBreakdown
from oracles import chain_rule_terms

# frozen oracle: 0.75 ln(3/2) + 0.25 ln(1/2), summed by hand with fsum
ENT_34_12 = 0.13081203594113694


def test_discrete_entropy_oracle_value():
    nu = DiscreteMeasure((0.0, 1.0), np.array([0.75, 0.25]))
    mu = DiscreteMeasure((0.0, 1.0), np.array([0.5, 0.5]))
    assert relative_entropy_discrete(nu, mu) == pytest.approx(ENT_34_12, abs=1e-15)
    assert relative_entropy_discrete(mu, mu) == 0.0


def test_discrete_entropy_infinite_off_support():
    nu = DiscreteMeasure((0.0, 2.0), np.array([0.5, 0.5]))
    mu = DiscreteMeasure((0.0, 1.0), np.array([0.5, 0.5]))
    assert math.isinf(relative_entropy_discrete(nu, mu))
    # but zero mass off support is fine
    nu2 = DiscreteMeasure((0.0, 1.0, 2.0), np.array([0.5, 0.5, 0.0]))
    assert relative_entropy_discrete(nu2, mu) == pytest.approx(0.0, abs=1e-15)


def test_gaussian_entropy_oracle_values():
    a = GaussianMeasure([0.0], [[1.0]])
    b = GaussianMeasure([1.0], [[2.0]])
    # 0.5 (ln 2 + 1/2 + 1/2 - 1) = 0.5 ln 2
    assert relative_entropy_gaussian(a, b) == pytest.approx(0.5 * math.log(2.0), abs=1e-14)
    assert relative_entropy_gaussian(a, a) == 0.0
    with pytest.raises(InputError):
        relative_entropy_gaussian(a, GaussianMeasure([0.0], [[0.0]]))


def test_gaussian_entropy_vs_grid_oracle():
    a = GaussianMeasure([0.3], [[0.8]])
    b = GaussianMeasure([-0.2], [[1.4]])
    xs = np.linspace(-12, 12, 200001)
    pa = np.exp(-((xs - 0.3) ** 2) / 1.6) / math.sqrt(1.6 * math.pi)
    pb = np.exp(-((xs + 0.2) ** 2) / 2.8) / math.sqrt(2.8 * math.pi)
    grid = float(np.trapezoid(pa * np.log(pa / pb), xs))
    assert relative_entropy_gaussian(a, b) == pytest.approx(grid, abs=1e-8)


def _random_joint(rng):
    support = tuple((i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1))
    return DiscreteMeasure(support, rng.dirichlet(np.ones(8)))


@pytest.mark.parametrize("seed", range(25))
def test_chain_rule_identity_against_direct(seed):
    rng = np.random.default_rng(seed)
    q, p = _random_joint(rng), _random_joint(rng)
    direct = relative_entropy_discrete(q, p)
    breakdown = chain_rule_decompose(q, p)
    assert breakdown.total == pytest.approx(direct, abs=1e-10)
    assert breakdown.initial_term >= -1e-12
    assert all(t >= -1e-12 for t in breakdown.conditional_terms)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_chain_rule_identity_property(seed):
    rng = np.random.default_rng(seed)
    q, p = _random_joint(rng), _random_joint(rng)
    breakdown = chain_rule_decompose(q, p)
    assert breakdown.total == pytest.approx(relative_entropy_discrete(q, p), abs=1e-10)


def test_chain_rule_against_tabular_model():
    p = TabularModel(np.array([0.5, 0.5]), np.array([[0.7, 0.3], [0.4, 0.6]]))
    q = TabularModel(np.array([0.3, 0.7]), np.array([[0.6, 0.4], [0.5, 0.5]]))
    qj = tabular_joint_law(q, 3)
    q_meas = DiscreteMeasure(
        tuple(tuple(int(v) for v in pt) for pt in qj.support), qj.weights
    )
    pj = tabular_joint_law(p, 3)
    p_meas = DiscreteMeasure(
        tuple(tuple(int(v) for v in pt) for pt in pj.support), pj.weights
    )
    direct = relative_entropy_discrete(q_meas, p_meas)
    bd = chain_rule_decompose(q_meas, p)
    assert bd.total == pytest.approx(direct, abs=1e-12)
    # the chain's own law has zero entropy against itself
    assert chain_rule_decompose(p_meas, p).total == pytest.approx(0.0, abs=1e-12)


def test_chain_rule_reports_failure_step():
    support = ((0, 0), (0, 1), (1, 0), (1, 1))
    q = DiscreteMeasure(support, np.array([0.25, 0.25, 0.25, 0.25]))
    p = DiscreteMeasure(support, np.array([0.5, 0.0, 0.0, 0.5]))
    bd = chain_rule_decompose(q, p)
    assert math.isinf(bd.total)
    assert bd.failure_step == 2
    p2 = DiscreteMeasure(((0, 0), (0, 1)), np.array([0.5, 0.5]))
    bd2 = chain_rule_decompose(q, p2)
    assert bd2.failure_step == 1
    # a state outside 0..S-1 of a tabular P is off its support, never row -1
    chain = TabularModel(np.array([0.5, 0.5]), np.full((2, 2), 0.5))
    q3 = DiscreteMeasure(((0, 1, -1), (1, 1, 1)), np.array([0.5, 0.5]))
    bd3 = chain_rule_decompose(q3, chain)
    assert bd3.failure_step == 3
    assert bd3.initial_term == 0.0 and len(bd3.conditional_terms) == 1


def test_chain_rule_rejects_mismatched_inputs():
    q = DiscreteMeasure(((0, 0, 0), (0, 1, 1)), np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        chain_rule_decompose(q, DiscreteMeasure(((0, 0), (0, 1)), np.array([0.5, 0.5])))
    vec = DiscreteMeasure((((0, 0),), ((0, 1),)), np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        chain_rule_decompose(vec, DiscreteMeasure((((0, 0, 0),),), np.array([1.0])))
    ragged = DiscreteMeasure(((0, 0), (0, 1, 1)), np.array([0.5, 0.5]))
    chain = TabularModel(np.array([0.5, 0.5]), np.full((2, 2), 0.5))
    for args in ((ragged, chain), (ragged, ragged), (q, ragged), (q, GaussianMeasure([0.0], [[1.0]]))):
        with pytest.raises(InputError):
            chain_rule_decompose(*args)


def _sparse_probs(rng, k):
    """A probability vector on k states with some exact zeros."""
    w = rng.dirichlet(np.ones(k)) * (rng.random(k) > 0.3)
    if w.sum() == 0.0:
        w[rng.integers(k)] = 1.0
    return w / w.sum()


def _chain_case(seed, kind):
    """Q and P for the chain rule on n <= 4 steps, with zero weights.

    ``tabular``: P a chain on S <= 4 states with zero transitions, Q on
    paths drawn from P, half the time with paths that may visit the
    states -1, S or 0.5.
    ``discrete``: P a joint law on scalar paths, Q on some of P's paths and
    perhaps others. ``vector``: the same with pairs as steps.
    ``vector-tabular``: Q with pair steps against a tabular P.
    """
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    pairs = kind.startswith("vector")
    states = [(a, b) for a in range(2) for b in range(2)] if pairs else list(range(k))

    def paths(count, pool):
        return {tuple(pool[i] for i in rng.integers(len(pool), size=n)) for _ in range(count)}

    def law(support):
        support = sorted(support)
        return DiscreteMeasure(tuple(support), _sparse_probs(rng, len(support)))

    if kind in ("tabular", "vector-tabular"):
        p = TabularModel(_sparse_probs(rng, k), np.vstack([_sparse_probs(rng, k) for _ in range(k)]))
        if pairs:
            return law(paths(6, states)), p, n
        q_paths = {tuple(r) for r in simulate_joint(p, n, 6, seed=seed).values.tolist()}
        if rng.random() < 0.5:
            q_paths |= paths(2, states + [-1, k, 0.5])
        return law(q_paths), p, n
    p = law(paths(10, states))
    q_paths = {p.support[i] for i in rng.permutation(len(p))[: int(rng.integers(1, len(p) + 1))]}
    if rng.random() < 0.5:
        q_paths |= paths(2, states)
    return law(q_paths), p, n


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(("tabular", "discrete", "vector", "vector-tabular")),
)
def test_chain_rule_terms_match_prefix_kl_oracle(seed, kind):
    q, p, n = _chain_case(seed, kind)
    terms, failure_step = chain_rule_terms(q, p, n)
    bd = chain_rule_decompose(q, p)
    assert bd.failure_step == failure_step
    got = bd.conditional_terms if failure_step == 1 else (bd.initial_term,) + bd.conditional_terms
    assert len(got) == len(terms)
    tol = 1e-12 * max(1.0, math.fsum(terms))
    for a, b in zip(got, terms):
        assert abs(a - b) <= tol


def test_chain_rule_on_arma_empirical_laws():
    values = simulate_joint(ARMAModel([[0.5, 0.1], [0.0, 0.3]], np.eye(2)), 3, 5, seed=2).values
    q = empirical_measure(list(values))
    p = empirical_measure(list(values) + list(values[:2]))
    assert len(DiscreteMeasure(tuple(values), np.full(5, 0.2))) == 5
    bd = chain_rule_decompose(q, p)
    assert bd.total == pytest.approx(relative_entropy_discrete(q, p), abs=1e-12)
    assert bd.total > 0.0


def test_breakdown_validates_its_identity():
    with pytest.raises(InputError):
        EntropyBreakdown(total=1.0, initial_term=0.2, conditional_terms=(0.2,))
    with pytest.raises(InputError):
        EntropyBreakdown(total=0.0, initial_term=0.5, conditional_terms=(-0.5,))
    ok = EntropyBreakdown(total=0.4, initial_term=0.1, conditional_terms=(0.3,))
    assert ok.total == 0.4
