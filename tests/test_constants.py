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
from concentra.constants import FORMULAS, _prefix_sums, geometric_sum, gc_markov_kappas, ou_kappas, sweep

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
    cancellation and across magnitudes (subnormals included), in any order
    of the requested n, repeats and n = 0 included."""
    ns = [min(n, len(terms)) for n in ns]
    table = np.array(terms + [0.0])
    got = _prefix_sums(lambda m: table[m.astype(int) - 1], np.array(ns, dtype=float))
    assert got.shape == (len(ns),)
    for n, value in zip(ns, got.tolist()):
        want = math.fsum(terms[:n])
        assert value == want and math.copysign(1.0, value) == math.copysign(1.0, want)


def test_prefix_sums_cross_blocks_and_mark_nonfinite_prefixes(monkeypatch):
    """Across block boundaries the running integer carries over, also when a
    later block lowers the common exponent; a prefix that holds a
    non-finite term, or whose sum is beyond the largest double, is not
    finite, and the prefixes before it are unchanged."""
    monkeypatch.setattr(constants, "_BLOCK", 7)
    rng = np.random.default_rng(5)
    terms = (rng.choice([-1.0, 1.0], 50) * 10.0 ** rng.uniform(-300, 300, 50)).tolist()
    terms[30:] = [t * 1e-20 for t in terms[30:]]
    got = _prefix_sums(lambda m: np.array(terms)[m.astype(int) - 1], np.arange(51.0))
    assert got.tolist() == [math.fsum(terms[:n]) for n in range(51)]
    special = [1.0, 2.0, math.inf, 1.0, -math.inf, 1.0, 1e308, 1e308, -1e308]
    with np.errstate(invalid="ignore"):
        got = _prefix_sums(lambda m: np.array(special)[m.astype(int) - 1], np.arange(10.0))
    assert got[:3].tolist() == [0.0, 1.0, 3.0] and got[3:5].tolist() == [math.inf, math.inf]
    assert np.isnan(got[5:]).all()
    finite_only = [1e308, 1e308, -1e308]
    got = _prefix_sums(lambda m: np.array(finite_only)[m.astype(int) - 1], np.arange(4.0))
    assert got.tolist() == [0.0, 1e308, math.inf, 1e308]


@pytest.mark.parametrize("L", [0.0, 1e-12, 0.6, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 1.0 + 2e-9, 1.3])
def test_gc_and_ou_sums_are_fsums_of_their_terms(L):
    """Every value of a sweep is the fsum of its per-m terms, bit for bit,
    for the per-n call and for the whole sweep: ratio exactly 1, within
    1e-10 of it and far from it."""
    ns = list(range(1, 61)) + [200]
    sweep_values = gc_markov_kappas(1.5, L, ns)
    for n, got in zip(ns, sweep_values.tolist()):
        want = 1.5 * math.fsum(g * g for g in map(geometric_sum, [L] * n, range(1, n + 1)))
        assert got == want == gc_markov_kappa(1.5, L, n), n
    if L > 0.0:
        rho = -math.log(L)  # theta = exp(-rho) is L up to one rounding
        out = ou_kappas(rho, 1.0, ns, 0.7)
        theta, sigma2 = out["theta"], out["sigma2"]
        for n, kappa, mean in zip(ns, out["kappa_n"].tolist(), out["mean_Fn"].tolist()):
            assert ou_kappa(rho, 1.0, n, 0.7) == {"theta": theta, "sigma2": sigma2, "kappa_n": kappa, "mean_Fn": mean}
            assert kappa == sigma2 * math.fsum(g * g for g in map(geometric_sum, [theta] * n, range(1, n + 1)))
            # the terms theta^i are NumPy's power, as in every array program
            assert mean == 0.7 * math.fsum(np.power(theta, np.arange(1.0, n + 1)).tolist())


@pytest.mark.parametrize("formula", sorted(FORMULAS))
def test_sweep_is_the_per_n_call(formula):
    """``sweep`` gives each row's scalar value at every n, in any order and
    with repeats, and validates every n."""
    fn, names = FORMULAS[formula]
    params = {k: _VALID[k] for k in names if k != "n"}
    ns = [5, 1, 200, 5, 17]
    values, regime = sweep(formula, params, ns)
    want = [fn(*(n if k == "n" else params[k] for k in names)) for n in ns]
    assert values.tolist() == [float(v) for v in want]
    assert {getattr(v, "regime", None) for v in want} == {regime}
    for bad in (0, 2.5, True):
        with pytest.raises(InputError):
            sweep(formula, params, [1, bad])


_DEPENDENCE = {"L", "R", "M", "kappa"}


@st.composite
def _row_params(draw, names):
    """A row's parameters: scales across decades, orders s in [1, 2], and
    dependence values on and around every regime boundary (L = 1, R = alpha,
    L = alpha), where the summed rows and the expansive branches under- or
    overflow by n = 300."""
    params = {}
    for name in names:
        if name in ("kappa1", "alpha"):
            params[name] = draw(st.one_of(st.sampled_from([1.0, 2.0]), st.floats(1e-3, 1e3)))
        elif name == "s":
            params[name] = draw(st.one_of(st.sampled_from([1.0, 1.5, 2.0]), st.floats(1.0, 2.0)))
        elif name in _DEPENDENCE:
            boundary = [1.0, params.get("alpha", 1.0), 1.0 - 2.0**-52, 1.0 + 2.0**-52]
            params[name] = draw(st.one_of(st.sampled_from(boundary + [0.5, 3.0, 40.0]),
                                          st.floats(0.0, 50.0)))
            if name == "M":  # M > 0
                params[name] = max(params[name], 1e-3)
    return params


@pytest.mark.parametrize("formula", sorted(FORMULAS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sweep_is_the_scalar_call_bit_for_bit(formula, data):
    """Over n = 1..N the array sweep is every per-n scalar call, bit for bit
    with the same regime; where some n under- or overflows, the sweep raises
    the scalar call's InputError for the first such n."""
    fn, names = FORMULAS[formula]
    params = data.draw(_row_params([k for k in names if k != "n"]))
    ns = list(range(1, data.draw(st.integers(1, 300)) + 1))
    scalar = []
    for n in ns:
        try:
            scalar.append(fn(*params.values(), n))
        except InputError as exc:
            scalar.append(exc)
    failed = [v for v in scalar if isinstance(v, InputError)]
    if failed:
        with pytest.raises(InputError) as swept:
            sweep(formula, params, ns)
        assert str(swept.value) == str(failed[0])
        first = scalar.index(failed[0]) + 1
        assert f"at n={first}:" in str(swept.value)
        ns, scalar = ns[: first - 1], scalar[: first - 1]
        if not ns:
            return
    values, regime = sweep(formula, params, ns)
    assert [v.hex() for v in values.tolist()] == [float(v).hex() for v in scalar]
    assert {getattr(v, "regime", None) for v in scalar} == {regime}


@pytest.mark.parametrize("formula, params, first", [
    ("gc-general", {"kappa1": 1.0, "M": 3.0}, 256),  # 4^(2n) = 2^1024
    ("gc-markov", {"kappa1": 1.0, "L": 2.0}, 512),  # (2^m - 1)^2 rounds to 2^1024
    ("ts-markov", {"alpha": 1.0, "L": 1.5, "s": 2.0}, 1749),  # e 1.5^n > 1.8e308
])
def test_sweep_names_the_first_n_that_overflows(formula, params, first):
    with pytest.raises(InputError, match=rf"overflows in floating point at n={first}: "):
        sweep(formula, params, range(1, 2000))
    values, _ = sweep(formula, params, range(1, first))
    assert np.all((values > 0.0) & np.isfinite(values))


@pytest.mark.parametrize("fn, args, at", [
    (gc_markov_kappa, (1.0, 2.81, 400), 1),
    (ts_markov_alpha, (1.0, 1.5, 2.0, 2000), 1),
    (ou_kappa, (-700.0, 1.0, 3), 0),
    (gc_weak_kappa_general, (1.0, 1e200, 3), 1),
])
def test_numpy_scalar_parameters_take_the_float_path(fn, args, at):
    """A NumPy scalar parameter gives the InputError of its Python float,
    with no RuntimeWarning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as plain:
            fn(*args)
        with pytest.raises(InputError) as numpy:
            fn(*args[:at], np.float64(args[at]), *args[at + 1:])
    assert str(numpy.value) == str(plain.value)
    assert "overflows in floating point" in str(plain.value)


def test_arma_blocks_of_powers_give_the_direct_sum(monkeypatch):
    """The series does not depend on how its powers are blocked: with two
    floats per block the powers come 1 .. 1 at a time, and a non-normal A
    whose terms grow long before they decay needs many blocks past the
    first, which only covers j < log(1e-15) / log(rho)."""
    a = np.array([[0.5, 30.0], [0.0, 0.45]])
    want = oracle_arma_alpha(a, np.eye(2))
    assert arma_lsi_alpha(a, np.eye(2)) == pytest.approx(want, rel=1e-13)
    monkeypatch.setattr(constants, "_BLOCK", 2)
    assert arma_lsi_alpha(a, np.eye(2)) == pytest.approx(want, rel=1e-13)


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
