import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from concentra import (
    GaussianKernelModel,
    GaussianMeasure,
    InputError,
    OUModel,
    arma_lsi_alpha,
    contraction_noise_alpha,
    gaussian_chain_joint,
    gaussian_sharp_alpha,
    gc_markov_kappa,
    gc_weak_kappa,
    gc_weak_kappa_general,
    lsi_markov_alpha,
    lsi_markov_kernel_alpha,
    lsi_weak_alpha,
    lsi_weak_alpha_general,
    ou_kappa,
    ts_general_alpha,
    ts_markov_alpha,
    ts_weak_alpha,
)
from concentra import constants
from concentra.constants import FORMULAS, _prefix_fsums, geometric_sum, gc_markov_kappas, ou_kappas, sweep

from oracles import (
    oracle_arma_alpha,
    oracle_contraction,
    oracle_gc_general,
    oracle_gc_markov,
    oracle_lsi_markov,
    oracle_lsi_weak,
    oracle_lsi_weak_general,
    oracle_ou,
    oracle_ts,
    oracle_ts_general,
)


def test_geometric_sum_stable_near_one():
    assert geometric_sum(1.0, 5) == 5.0
    assert geometric_sum(1.0 + 5e-10, 5) == pytest.approx(5.0, abs=1e-8)
    assert geometric_sum(0.5, 3) == pytest.approx(1.75, abs=1e-15)
    assert geometric_sum(2.0, 4) == pytest.approx(15.0, abs=1e-12)


def test_geometric_sum_at_ratio_one_is_the_count_in_constant_time():
    """At ratio 1 the sum is ``terms`` itself, the fsum of that many ones,
    without summing them."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        assert geometric_sum(1.0, 10**6) == 1e6
        times.append(time.perf_counter() - t0)
    assert min(times) < 5e-3
    assert geometric_sum(1.0, 7) == math.fsum(1.0 for _ in range(7))


def _mp_geometric(mpmath, ratio, terms):
    r = mpmath.mpf(ratio)
    return terms if r == 1 else (r**terms - 1) / (r - 1)


def test_geometric_sums_against_mpmath():
    """geometric_sum within 2e-13 relative of 60-digit mpmath for ratios
    near 1 and near -1 on both sides, in [-1.5, 3] and across four decades,
    t <= 2,000 short of overflow; gc_markov_kappa within 1e-14 for ratios
    within 0.1 of 1 and n <= 40. The closed form cancelled near ratio 1:
    6.5e-9, and near -1 at even t: 5e-11 at (-1 + 1e-10, 2)."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    ratios = np.concatenate([
        1.0 + rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-15.0, -1.0, 1000),
        rng.uniform(0.0, 3.0, 500),
        10.0 ** rng.uniform(-3.0, 1.0, 500),
        -1.0 + rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-15.0, -1.0, 1000),
        rng.uniform(-1.5, 0.0, 500),
    ])
    cases = list(zip(ratios.tolist(), rng.integers(1, 2001, ratios.size).tolist()))
    cases += [(-1.0 + d, t) for d in (1e-10, -1e-10) for t in (1, 2, 3, 4, 1000, 1001)]
    worst = 0.0
    with mpmath.workdps(60):
        for ratio, terms in cases:
            want = _mp_geometric(mpmath, ratio, terms)
            if abs(want) > 1e300:
                continue
            worst = max(worst, float(abs(geometric_sum(ratio, terms) - want) / abs(want)))
        assert worst <= 2e-13, worst
        worst = 0.0
        for ratio, n in zip((1.0 + rng.uniform(-0.1, 0.1, 300)).tolist(), rng.integers(1, 41, 300).tolist()):
            want = mpmath.fsum(_mp_geometric(mpmath, ratio, m) ** 2 for m in range(1, n + 1))
            worst = max(worst, float(abs(gc_markov_kappa(1.0, ratio, n) - want) / want))
        assert worst <= 1e-14, worst


_FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_FINITE, st.floats(min_value=-1e-300, max_value=1e-300),
                          st.sampled_from([1e16, -1e16, 1.0, -1.0, 2.0**-60])), max_size=60),
       st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=8))
def test_prefix_fsums_are_fsum_of_each_prefix(terms, ns):
    """Exact prefix sums give fsum's bits for every prefix, under
    cancellation and across magnitudes, in any order of the requested n."""
    ns = [min(n, len(terms)) for n in ns]
    got = _prefix_fsums(terms, ns)
    assert set(got) == set(ns)
    for n in ns:
        want = math.fsum(terms[:n])
        assert got[n] == want and math.copysign(1.0, got[n]) == math.copysign(1.0, want)


@pytest.mark.parametrize("L", [0.0, 1e-12, 0.6, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 1.0 + 2e-9, 1.3])
def test_gc_and_ou_sums_are_fsums_of_their_terms(L):
    """Every value of a sweep is the fsum of its per-m terms, bit for bit,
    for the per-n call and for the whole sweep: ratio exactly 1, within
    1e-10 of it and far from it."""
    ns = list(range(1, 61)) + [200]
    sweep_values = gc_markov_kappas(1.5, L, ns)
    for n, got in zip(ns, sweep_values):
        want = 1.5 * math.fsum(geometric_sum(L, m) ** 2 for m in range(1, n + 1))
        assert got == want == gc_markov_kappa(1.5, L, n), n
    if L > 0.0:
        rho = -math.log(L)  # theta = exp(-rho) is L up to one rounding
        for n, out in zip(ns, ou_kappas(rho, 1.0, ns, 0.7)):
            theta = out["theta"]
            assert out == ou_kappa(rho, 1.0, n, 0.7)
            assert out["kappa_n"] == out["sigma2"] * math.fsum(geometric_sum(theta, m) ** 2 for m in range(1, n + 1))
            assert out["mean_Fn"] == 0.7 * math.fsum(theta**i for i in range(1, n + 1))


@pytest.mark.parametrize("formula", sorted(FORMULAS))
def test_sweep_is_the_per_n_call(formula):
    """``sweep`` gives each row's scalar value at every n, in any order and
    with repeats, and validates every n."""
    fn, names = FORMULAS[formula]
    params = {k: _VALID[k] for k in names if k != "n"}
    ns = [5, 1, 200, 5, 17]
    got = sweep(formula, params, ns)
    want = [fn(*(n if k == "n" else params[k] for k in names)) for n in ns]
    assert [float(v) for v in got] == [float(v) for v in want]
    assert [getattr(v, "regime", "") for v in got] == [getattr(v, "regime", "") for v in want]
    for bad in (0, 2.5, True):
        with pytest.raises(InputError):
            sweep(formula, params, [1, bad])


def test_gc_markov_examples():
    assert gc_markov_kappa(1.0, 1.0, 3) == pytest.approx(14.0, abs=1e-12)
    assert gc_markov_kappa(1.0, 0.0, 4) == pytest.approx(4.0, abs=1e-12)
    assert gc_weak_kappa(2.0, 0.5, 2) == pytest.approx(2.0 * (1.0 + 2.25), abs=1e-12)
    assert gc_weak_kappa_general(1.0, 1.0, 2) == pytest.approx(16.0, abs=1e-12)


def test_gc_against_direct_summation():
    for kappa1 in (0.5, 1.0, 2.0):
        for L in (0.0, 0.3, 1.0, 1.7):
            for n in (1, 2, 5, 12):
                assert gc_markov_kappa(kappa1, L, n) == pytest.approx(
                    oracle_gc_markov(kappa1, L, n), rel=1e-12
                )
    for M in (0.5, 1.0, 3.0):
        for n in (1, 3, 7):
            assert gc_weak_kappa_general(1.2, M, n) == pytest.approx(
                oracle_gc_general(1.2, M, n), rel=1e-12
            )


def test_ts_examples_and_regimes():
    rc = ts_markov_alpha(1.0, 2.0, 1.0, 3)
    assert rc.value == pytest.approx(1.0 / 256.0, abs=1e-15)
    assert rc.regime == "expansive"
    rc = ts_markov_alpha(1.0, 0.5, 2.0, 7)
    assert rc.regime == "contractive"
    rc = ts_markov_alpha(1.0, 1.0, 2.0, 1)
    assert rc.regime == "critical"
    assert rc.value == pytest.approx(1.0 / (4.0 * math.e), abs=1e-15)
    assert ts_general_alpha(1.0, 1.0, 1.0, 2) == pytest.approx(1.0 / 16.0, abs=1e-15)


def test_ts_against_direct_evaluation():
    for alpha in (0.5, 1.0):
        for R in (0.2, 0.9, 1.0, 1.5, 3.0):
            for s in (1.0, 1.5, 2.0):
                for n in (1, 2, 6):
                    got = ts_weak_alpha(alpha, R, s, n).value
                    assert got == pytest.approx(oracle_ts(alpha, R, s, n), rel=1e-12)
    for M in (0.5, 1.0, 2.0):
        for s in (1.0, 1.5, 2.0):
            for n in (1, 4):
                assert ts_general_alpha(0.7, M, s, n) == pytest.approx(
                    oracle_ts_general(0.7, M, s, n), rel=1e-12
                )


def test_ts_s2_contractive_is_n_free():
    for L in (0.1, 0.5, 0.9):
        vals = {ts_markov_alpha(1.0, L, 2.0, n).value for n in (1, 10, 100)}
        assert len(vals) == 1


def test_lsi_examples():
    assert lsi_markov_alpha(1.0, 1.0, 2).value == pytest.approx(
        1.0 / (6.0 * (math.e - 1.0)), abs=1e-15
    )
    assert lsi_markov_alpha(1.0, 2.0, 1).value == pytest.approx(3.0 / (8.0 * math.e), abs=1e-15)
    assert lsi_markov_kernel_alpha(1.0, 1.0, 3).value == pytest.approx(
        1.0 / (12.0 * (math.e - 1.0)), abs=1e-15
    )
    assert contraction_noise_alpha(1.0, 2.0, 2).value == pytest.approx(
        1.0 / (12.0 * math.e), abs=1e-15
    )
    # R = 0: independent steps keep the one-step constant
    assert lsi_weak_alpha(2.0, 0.0, 5).value == pytest.approx(2.0, abs=1e-15)


def test_lsi_against_direct_evaluation():
    for alpha in (0.5, 1.0, 2.0):
        for L in (0.1, alpha, 2.5):
            for n in (1, 3, 8):
                assert lsi_markov_alpha(alpha, L, n).value == pytest.approx(
                    oracle_lsi_markov(alpha, L, n), rel=1e-12
                )
                assert lsi_weak_alpha(alpha, L, n).value == pytest.approx(
                    oracle_lsi_weak(alpha, L, n), rel=1e-12
                )
                assert contraction_noise_alpha(alpha, L, n).value == pytest.approx(
                    oracle_contraction(alpha, L, n), rel=1e-12
                )


def test_lsi_weak_general_fixed_epsilon_example():
    kappa = np.zeros((2, 2))
    kappa[1, 0] = 1.0  # kappa_{2,1} = alpha
    got = lsi_weak_alpha_general(1.0, kappa, 2, epsilon=1.0)
    assert got == pytest.approx(0.125, abs=1e-15)
    assert got == pytest.approx(oracle_lsi_weak_general(1.0, kappa.tolist(), 2, 1.0), rel=1e-14)


def test_lsi_weak_general_auto_epsilon_beats_grid():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5):
        kappa = np.tril(rng.uniform(0.0, 0.5, size=(n, n)), k=-1)
        auto = lsi_weak_alpha_general(1.0, kappa, n, epsilon="auto")
        grid_best = max(
            lsi_weak_alpha_general(1.0, kappa, n, epsilon=e)
            for e in np.geomspace(1e-4, 1e4, 20)
        )
        assert auto >= grid_best - 1e-12


@pytest.mark.parametrize("alpha", [0.01, 0.5, 1.0, 3.0, 100.0])
def test_lsi_weak_general_auto_epsilon_two_step_closed_form(alpha):
    """At n = 2 the optimum over eps is alpha / (sqrt(c) + sqrt(2 + c))^2
    with c = kappa_{2,1} / alpha, attained at eps* = 1 / sqrt(1 + 2 / c)."""
    for c in (1e-14, 1e-12, 1e-11, 1e-8, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e5):
        got = lsi_weak_alpha_general(alpha, [[0.0, 0.0], [c * alpha, 0.0]], 2)
        assert got == pytest.approx(alpha / (math.sqrt(c) + math.sqrt(2.0 + c)) ** 2, rel=1e-14)


def test_lsi_weak_general_zero_coupling_recovers_alpha_over_two():
    # with no coupling the bracket is n and the optimum sits at eps -> 0
    assert lsi_weak_alpha_general(2.0, None, 1, epsilon="auto") == 2.0
    assert lsi_weak_alpha_general(2.0, np.triu(np.ones((4, 4))), 4, epsilon="auto") == 0.5


@pytest.mark.parametrize("n, k", [(200, 10.0), (400, 1.0)])
def test_lsi_weak_general_underflow_raises_input_error(n, k):
    """The constant lies below the smallest normal double: an InputError,
    never 0.0, and no overflow warning on the way."""
    kappa = np.tril(np.full((n, n), k), -1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in ("auto", 1e-3, 1.0, 1e3):
            with pytest.raises(InputError, match="underflows"):
                lsi_weak_alpha_general(1.0, kappa, n, epsilon=eps)


def _float_golden_max(alpha, kappa, n):
    """Float-domain maximum over eps: golden-section search of the loop
    oracle on log(eps) over [e^-25, n]."""
    f = lambda x: oracle_lsi_weak_general(alpha, kappa, n, math.exp(x))
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = -25.0, math.log(n)
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return max(fc, fd)


def test_lsi_weak_general_log_domain_matches_float_path():
    # sizes where the float bracket stays finite
    rng = np.random.default_rng(11)
    for _ in range(12):
        n = int(rng.integers(2, 61))
        alpha = float(rng.uniform(0.1, 10.0))
        kappa = np.tril(rng.uniform(0.0, rng.choice([0.01, 0.1, 0.5]), size=(n, n)), k=-1).tolist()
        eps = float(10.0 ** rng.uniform(-3.0, 3.0))
        assert lsi_weak_alpha_general(alpha, kappa, n, epsilon=eps) == pytest.approx(
            oracle_lsi_weak_general(alpha, kappa, n, eps), rel=1e-12
        )
        assert lsi_weak_alpha_general(alpha, kappa, n) == pytest.approx(
            _float_golden_max(alpha, kappa, n), rel=1e-12
        )


def test_arma_scalar_closed_form():
    for c in (0.04, 0.25, 0.64, 0.9):
        expect = (1.0 - math.sqrt(c)) ** 2 * (1.0 - c) ** 2
        got = arma_lsi_alpha(c * np.eye(2), np.eye(2))
        assert got == pytest.approx(expect, rel=1e-13)


def test_arma_near_the_unit_circle_is_accurate_and_fast():
    """At rho = 1 - 1e-7 the series has ~10^7 terms of size ~1: the tail
    bound after the capped sum is exact for c I, where the ratio heuristic
    ran 125 s and returned 10,100 times the constant."""
    c = 1.0 - 1e-7
    t0 = time.perf_counter()
    got = arma_lsi_alpha(c * np.eye(2), np.eye(2))
    assert time.perf_counter() - t0 < 5.0
    assert got == pytest.approx((1.0 - math.sqrt(c)) ** 2 * (1.0 - c) ** 2, rel=1e-8)


def test_arma_matches_direct_summation():
    rng = np.random.default_rng(3)
    for _ in range(300):
        m = int(rng.integers(1, 4))
        a = rng.normal(size=(m, m))
        a *= rng.uniform(0.05, 0.95) / max(abs(np.linalg.eigvals(a)))
        b = rng.normal(size=(m, m))
        assert arma_lsi_alpha(a, b) == pytest.approx(oracle_arma_alpha(a, b), rel=2e-14)


def test_arma_tail_bound_at_the_term_cap(monkeypatch):
    """At the cap the constant comes from S_J / (1 - t_J), which is exact
    for c I and conservative otherwise; t_J >= 1 raises."""
    monkeypatch.setattr(constants, "_ARMA_MAX_TERMS", 20)
    c = 0.95  # t_20 = 0.36
    assert arma_lsi_alpha(c * np.eye(2), np.eye(2)) == pytest.approx(
        (1.0 - math.sqrt(c)) ** 2 * (1.0 - c) ** 2, rel=1e-13)
    a = np.array([[0.9, 0.2], [0.0, 0.8]])
    assert arma_lsi_alpha(a, np.eye(2)) <= oracle_arma_alpha(a, np.eye(2))
    with pytest.raises(InputError, match="no certified tail after 20 terms"):
        arma_lsi_alpha(np.array([[0.9, 1.0], [0.0, 0.9]]), np.eye(2))


def test_arma_rejects_bad_inputs():
    with pytest.raises(InputError):
        arma_lsi_alpha(np.eye(2), np.eye(2))  # rho = 1
    with pytest.raises(InputError):
        arma_lsi_alpha(1.5 * np.eye(2), np.eye(2))
    with pytest.raises(InputError):
        arma_lsi_alpha(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))  # nilpotent
    # A = 0 is fine: only the j = 0 term survives
    got = arma_lsi_alpha(np.zeros((2, 2)), 2.0 * np.eye(2))
    assert got == pytest.approx(0.25, rel=1e-12)


def test_ou_example_values():
    out = ou_kappa(math.log(2.0), 1.0, 2, 1.0)
    assert out["theta"] == pytest.approx(0.5, abs=1e-15)
    assert out["sigma2"] == pytest.approx(3.0 / (8.0 * math.log(2.0)), abs=1e-15)
    assert out["kappa_n"] == pytest.approx(3.25 * out["sigma2"], rel=1e-14)
    assert out["mean_Fn"] == pytest.approx(0.75, abs=1e-15)
    flat = ou_kappa(0.0, 1.0, 1)
    assert flat["sigma2"] == 1.0 and flat["kappa_n"] == 1.0


@pytest.mark.parametrize("rho", [5e-324, 1e-300, -1e-17])
def test_ou_rho_below_round_off_gives_the_rho_zero_variance(rho):
    """theta = exp(-rho tau) rounds to 1, where (1 - theta^2) / (2 rho)
    cancels to 0 but the exact variance is tau to double precision."""
    out = ou_kappa(rho, 0.5, 3)
    assert out["theta"] == 1.0 and out["sigma2"] == 0.5 and out["kappa_n"] == ou_kappa(0.0, 0.5, 3)["kappa_n"]


@pytest.mark.parametrize("rho, tau", [
    (1e-14, 1.0), (1e-12, 1.0), (3e-9, 0.5), (-2e-10, 2.0), (0.2, 0.5), (5e-324, 0.3), (1e-310, 0.3),
])
def test_ou_variance_does_not_cancel_for_small_rho_tau(rho, tau):
    """sigma2 = (1 - theta^2) / (2 rho) loses digits to cancellation when
    0 < |rho tau| << 1: at rho = 1e-14 it gave 0.99920 for 1 - 1e-14. A
    subnormal 2 rho tau must not lose them either."""
    got = ou_kappa(rho, tau, 1)["sigma2"]
    assert got == pytest.approx(oracle_ou(rho, tau, 1, 0.0)["sigma2"], rel=4e-16)
    if (rho, tau) == (1e-14, 1.0):
        assert abs(got - (1.0 - 1e-14)) <= 1e-15


def test_ou_against_direct_summation():
    for rho in (0.0, 0.3, 1.0):
        for tau in (0.5, 1.0):
            for n in (1, 2, 7):
                got = ou_kappa(rho, tau, n, 0.7)
                want = oracle_ou(rho, tau, n, 0.7)
                for key in ("theta", "sigma2", "kappa_n", "mean_Fn"):
                    assert got[key] == pytest.approx(want[key], rel=1e-12, abs=1e-15)


def test_ou_cross_identity_with_gc():
    """kappa_n = Var(F_n) = 1^T Sigma 1 for the joint law Sigma of the chain."""
    for rho in (math.log(2.0), 0.0, -math.log(1.5)):
        for n in (1, 3, 9):
            out = ou_kappa(rho, 1.0, n)
            direct = float(gaussian_chain_joint(OUModel(rho, 1.0), n).cov.sum())
            assert out["kappa_n"] == pytest.approx(direct, rel=1e-12)


def test_input_validation():
    with pytest.raises(InputError):
        gc_markov_kappa(-1.0, 0.5, 3)
    with pytest.raises(InputError):
        gc_markov_kappa(1.0, 0.5, 0)
    with pytest.raises(InputError):
        ts_markov_alpha(1.0, 0.5, 3.0, 2)
    with pytest.raises(InputError):
        gc_weak_kappa_general(1.0, 0.0, 2)
    with pytest.raises(InputError):
        lsi_weak_alpha_general(1.0, -np.ones((2, 2)), 2)
    for eps in ("auto", 1.0):  # NaN coupling is not zero coupling
        with pytest.raises(InputError, match="kappa_matrix must be finite and >= 0"):
            lsi_weak_alpha_general(1.0, [[0.0, 0.0], [math.nan, 0.0]], 2, epsilon=eps)


_VALID = {"kappa1": 1.0, "alpha": 1.0, "L": 0.5, "R": 0.5, "M": 0.5, "kappa": 0.5, "s": 1.5, "n": 3}


@pytest.mark.parametrize("formula, name", [
    pytest.param(formula, name, id=f"{formula}-{name}")
    for formula, (_, names) in sorted(FORMULAS.items()) for name in names
])
def test_every_formula_rejects_nonfinite_inputs_and_bad_counts(formula, name):
    fn, names = FORMULAS[formula]
    assert math.isfinite(float(fn(*(_VALID[k] for k in names))))
    bad = [math.nan, math.inf, -math.inf] + ([0, 2.5, True] if name == "n" else [])
    for v in bad:
        with pytest.raises(InputError):
            fn(*(v if k == name else _VALID[k] for k in names))


_EXTREME = {"n": (1, 3, 200), "s": (1.0, 2.0)}


@pytest.mark.parametrize("formula", sorted(FORMULAS))
def test_every_formula_overflow_is_input_error(formula):
    """From finite inputs, every row gives a positive finite value or
    raises InputError, never OverflowError, ZeroDivisionError, 0 or inf."""
    fn, names = FORMULAS[formula]
    grids = [_EXTREME.get(k, (1e-200, 0.5, 2.0, 1e200, 1e308)) for k in names]
    for args in itertools.product(*grids):
        try:
            value = float(fn(*args))
        except InputError:
            continue
        assert 0.0 < value < math.inf, (formula, args)


@pytest.mark.parametrize("fn, args", [
    (gc_markov_kappa, (1e308, 10.0, 5)),  # inf result
    (gc_weak_kappa_general, (1.0, 1e200, 3)),  # OverflowError
    (gc_weak_kappa_general, (1.0, 1e-200, 3)),  # M**2 underflows to 0: ZeroDivisionError
    (ts_markov_alpha, (1.0, 1e10, 2.0, 40)),
    (ou_kappa, (-1000.0, 1.0, 3)),
    (ts_general_alpha, (1.0, 1e-300, 1.0, 3)),  # underflows to 0.0
])
def test_overflow_repros_raise_input_error(fn, args):
    with pytest.raises(InputError, match="overflows in floating point"):
        fn(*args)


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
def test_ou_rejects_nonfinite_rho(rho):
    with pytest.raises(InputError, match="rho must be finite"):
        ou_kappa(rho, 1.0, 3)
    assert math.isfinite(ou_kappa(-0.5, 1.0, 3)["kappa_n"])  # any finite rho is valid


def test_regime_constant_str_and_float():
    rc = ts_markov_alpha(1.0, 0.5, 2.0, 3)
    assert float(rc) == rc.value


@pytest.mark.parametrize("theta", [0.0, 0.3, -0.9, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("sigma2, init_var", [(1.0, 1.0), (0.25, 2.0), (4.0, 0.5)])
def test_gaussian_sharp_alpha_two_step_ar1_closed_form(theta, sigma2, init_var):
    """The 2-step AR(1) joint covariance [[v, theta v], [theta v, theta^2 v + s2]]
    has trace v (1 + theta^2) + s2 and determinant v s2."""
    cov = gaussian_chain_joint(GaussianKernelModel(theta, sigma2, init_var=init_var), 2).cov
    v = init_var
    # v and theta v are exact: the variances enter as given, not as squared roots
    assert cov[0, 0] == v and cov[0, 1] == cov[1, 0] == theta * v
    assert cov[1, 1] == pytest.approx(theta**2 * v + sigma2, rel=1e-14, abs=0)
    tr, det = v * (1.0 + theta**2) + sigma2, v * sigma2
    lam_max = (tr + math.sqrt(tr * tr - 4.0 * det)) / 2.0
    assert gaussian_sharp_alpha(GaussianMeasure([0.0, 0.0], cov)) == pytest.approx(1.0 / lam_max, rel=1e-12)


def test_gaussian_sharp_alpha_rejects_a_point_mass():
    with pytest.raises(InputError):
        gaussian_sharp_alpha(GaussianMeasure([1.0, 2.0], np.zeros((2, 2))))
