import itertools
import math
import warnings

import numpy as np
import pytest

from concentra import (
    InputError,
    arma_lsi_alpha,
    contraction_noise_alpha,
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
from concentra.constants import FORMULAS, geometric_sum

from oracles import (
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
    for c in (0.04, 0.25, 0.64):
        expect = (1.0 - math.sqrt(c)) ** 2 * (1.0 - c) ** 2
        got = arma_lsi_alpha(c * np.eye(2), np.eye(2))
        assert got == pytest.approx(expect, rel=1e-9)


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
    for rho in (math.log(2.0), 0.0, -math.log(1.5)):
        for n in (1, 3, 9):
            out = ou_kappa(rho, 1.0, n)
            direct = gc_markov_kappa(out["sigma2"], out["theta"], n)
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
        with pytest.raises(InputError, match="nonnegative"):
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
