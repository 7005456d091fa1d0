"""Explicit inequality constants with regime dispatch.

Every function evaluates one of the closed-form constants for the joint
law of a dependent process: Gaussian-concentration constants, transport
constants for order-s costs with their contractive / critical / expansive
regimes, and logarithmic Sobolev constants for Lipschitz-driven,
ARMA-type and kernel-coupled chains. A geometric sum is exactly ``terms``
at ratio 1, and elsewhere one closed form with no cancellation near 1 (see
``geometric_sum``). The ARMA series stops with a certified tail bound, so
its constant is never too large (see ``arma_lsi_alpha``).

Each ``FORMULAS`` row is an array program over n: ``sweep`` evaluates it
at every requested n in one NumPy expression, checked once, and each
scalar function is the one-n case of the same program, so a sweep's value
at n is bit for bit the scalar call. The summed forms (``gc_markov_kappas``,
``ou_kappas``) make their per-m terms up to the largest n and take each
n's value as an exact prefix sum: a finite term is k 2^e with an integer
k (``frexp``), so at the smallest exponent e0 every term is the integer
k 2^(e - e0), the running totals are exact Python integers
(``itertools.accumulate``), and one correctly rounded integer division per
n gives ``math.fsum`` of that prefix, bit for bit. Terms are made
``_BLOCK`` at a time, so a sweep's memory does not grow with n.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .errors import InputError, _check
from .measures import GaussianMeasure

_E = math.e

# the most terms arma_lsi_alpha sums before it certifies its tail
_ARMA_MAX_TERMS = 100000
# the most floats a block of summed terms or of ARMA matrix powers holds
_BLOCK = 1 << 16

CONTRACTIVE = "contractive"
CRITICAL = "critical"
EXPANSIVE = "expansive"


@dataclass(frozen=True)
class RegimeConstant:
    """A positive constant together with the regime that produced it."""

    value: float
    regime: str

    def __post_init__(self):
        if not self.value > 0:
            raise InputError(f"constant must be positive, got {self.value}")
        if self.regime not in (CONTRACTIVE, CRITICAL, EXPANSIVE):
            raise InputError(f"unknown regime {self.regime!r}")

    def __float__(self):
        return float(self.value)


def _quotient(total: int, den: int) -> float:
    try:
        return total / den
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _prefix_sums(term, n: np.ndarray) -> np.ndarray:
    """``math.fsum(term(np.arange(1.0, k + 1)))`` for every k in the float
    array ``n`` of counts >= 0, bit for bit wherever fsum returns a finite
    value; ``term`` maps a float array of indices m to the terms' floats.

    The running total is one Python integer at scale 2^e0, e0 the smallest
    exponent seen so far, and each requested prefix is one integer true
    division by 2^-e0, correctly rounded as fsum rounds the exact sum. A
    prefix past a non-finite term takes the sum of the non-finite terms
    (inf, -inf or nan), and a prefix beyond the largest double is +-inf."""
    want = n.astype(np.int64)
    out = np.zeros(want.shape)
    total, e0, special = 0, 0, 0.0  # the finite sum is total * 2**e0
    top = int(want.max(initial=0))
    for lo in range(0, top, _BLOCK):
        hi = min(lo + _BLOCK, top)
        t = np.asarray(term(np.arange(lo + 1.0, hi + 1.0)), dtype=float)
        finite = np.isfinite(t)
        mant, exp = np.frexp(np.where(finite, t, 0.0))
        mant, exp = (mant * 2.0**53).astype(np.int64), exp - 53
        low = min(e0, int(exp.min()))
        total, e0 = total << (e0 - low), low
        sums = np.array(list(accumulate(map(operator.lshift, mant.tolist(), (exp - e0).tolist()),
                                        initial=total)), dtype=object)
        total = sums[-1]
        mine = (want > lo) & (want <= hi)
        out[mine] = list(map(_quotient, sums[want[mine] - lo].tolist(), repeat(1 << -e0)))
        if special != 0.0 or not finite.all():  # nan != 0.0 too
            specials = special + np.cumsum(np.where(finite, 0.0, t))
            last = specials[want[mine] - lo - 1]
            out[mine] = np.where(last == 0.0, out[mine], last)
            special = float(specials[-1])
    return out


def _geometric_sums(ratio: float, terms: np.ndarray) -> np.ndarray:
    """``geometric_sum(ratio, t)`` at every t in the float array ``terms``."""
    if ratio == 1.0:
        return terms
    if ratio > 0.0:
        return np.expm1(terms * math.log(ratio)) / (ratio - 1.0)
    if ratio < 0.0:
        top = np.where(terms % 2.0 == 0.0, np.expm1(terms * math.log(-ratio)), -((-ratio) ** terms + 1.0))
        return top / (ratio - 1.0)
    return (ratio**terms - 1.0) / (ratio - 1.0)


def geometric_sum(ratio: float, terms: int) -> float:
    """sum_{k=0}^{terms-1} ratio**k: exactly ``terms`` at ratio 1, else
    (ratio**terms - 1) / (ratio - 1). For ratio > 0 the numerator is
    expm1(terms log ratio), and ratio - 1 is exact near 1 (Sterbenz), so
    the quotient does not cancel as the ratio nears 1. For ratio < 0 it is
    expm1(terms log|ratio|) at even terms, which does not cancel as the
    ratio nears -1, and -(|ratio|**terms + 1) at odd terms."""
    with np.errstate(all="ignore"):
        return float(_geometric_sums(float(ratio), np.array([terms], dtype=float))[0])


def _squared_geometric_sums(ratio: float, n: np.ndarray) -> np.ndarray:
    """The exact prefix sums over m = 1..n of geometric_sum(ratio, m)**2."""
    return _prefix_sums(lambda m: _geometric_sums(ratio, m) ** 2, n)


# the array programs: each maps its parameters, as floats, and a float
# array n of horizons to (value or array of values, regime or None); they
# run under np.errstate, so an under- or overflow shows in the values

def _gc_markov(kappa1, L, n):
    return kappa1 * _squared_geometric_sums(L, n), None


def _gc_general(kappa1, M, n):
    return kappa1 * (1.0 + M) ** (2 * n) / M**2, None


def _ts_markov(alpha, L, s, n):
    if L < 1.0:
        return n ** (1.0 - 2.0 / s) * (1.0 - L ** (1.0 / s)) ** 2 * alpha, CONTRACTIVE
    if L == 1.0:
        # critical branch normalized to carry the same alpha factor as its
        # neighbours; (n+1) exponent from the gamma = 1 + 1/n choice
        return _E ** (2.0 / s - 2.0) * (n + 1) ** (-2.0 / s - 1.0) * alpha, CRITICAL
    return ((L - 1.0) / (_E ** (s - 1.0) * L**n)) ** (2.0 / s) * alpha / (n + 1), EXPANSIVE


def _ts_general(alpha, M, s, n):
    return alpha * ((n * _E) ** (1.0 - s) * M / (1.0 + M) ** n) ** (2.0 / s), None


def _lsi_markov(alpha, L, n):
    if L < alpha:
        return (alpha - L) ** 2 / alpha, CONTRACTIVE
    if L == alpha:
        return alpha / (n * (n + 1) * (_E - 1.0)), CRITICAL
    return (alpha / L) ** (2 * n) * (L**2 - alpha**2) / (alpha * _E * (n + 1)), EXPANSIVE


def _lsi_weak(alpha, R, n):
    if R < alpha:
        return (math.sqrt(alpha) - math.sqrt(R)) ** 2, CONTRACTIVE
    if R == alpha:
        return alpha / (n * (n + 1) * (_E - 1.0)), CRITICAL
    return (alpha / R) ** n * (R - alpha) / (_E * (n + 1)), EXPANSIVE


def _contraction_noise(alpha, L, n):
    if L < 1.0:
        return (1.0 - L) ** 2 * alpha, CONTRACTIVE
    if L == 1.0:
        return alpha / (n * (n + 1) * (_E - 1.0)), CRITICAL
    return (L - 1.0) * alpha / (L**n * _E * (n + 1)), EXPANSIVE


def _ou(rho, tau, x, n):
    theta = math.exp(-rho * tau)
    # where theta rounds to 1, tau is within 1.1e-16 of sigma2, while a
    # subnormal 2 rho tau would lose digits (rho = 5e-324, tau = 0.3 gives 0.5)
    sigma2 = tau if theta == 1.0 else -math.expm1(-2.0 * rho * tau) / (2.0 * rho)
    # at x = +-0 every mean is x itself (kappa_n overflows before the sum)
    mean = x * _prefix_sums(lambda m: theta**m, n) if x else np.full(n.shape, x)
    return {"theta": theta, "sigma2": sigma2, "kappa_n": sigma2 * _squared_geometric_sums(theta, n), "mean_Fn": mean}


# scalar function name -> (array program, the function's parameter names
# before n)
_PROGRAMS = {
    "gc_markov_kappa": (_gc_markov, ("kappa1", "L")),
    "gc_weak_kappa_general": (_gc_general, ("kappa1", "M")),
    "ts_markov_alpha": (_ts_markov, ("alpha", "L", "s")),
    "ts_general_alpha": (_ts_general, ("alpha", "M", "s")),
    "lsi_markov_alpha": (_lsi_markov, ("alpha", "L")),
    "lsi_weak_alpha": (_lsi_weak, ("alpha", "R")),
    "contraction_noise_alpha": (_contraction_noise, ("alpha", "L")),
    "ou_kappa": (_ou, ("rho", "tau", "x")),
}


def _run(name: str, args, ns):
    """The program of scalar function ``name`` at every horizon in ``ns``
    at once, its parameters ``args`` and the horizons checked once. Returns
    the horizons as a float array, the parameters by name, and the
    program's output; an ArithmeticError on a scalar step is InputError."""
    program, names = _PROGRAMS[name]
    params = dict(zip(names, args))
    _check(**params, n=ns)
    try:
        n = np.asarray(ns, dtype=float).ravel()
        with np.errstate(all="ignore"):
            return n, params, program(*map(float, args), n)
    except ArithmeticError as exc:
        raise InputError(f"{_call(name, params)} overflows in floating point: {exc}") from None


def _call(name: str, params: dict) -> str:
    return f"{name}({', '.join(f'{k}={v}' for k, v in params.items())})"


def _require(ok: np.ndarray, name: str, params: dict, n: np.ndarray, values: np.ndarray) -> None:
    """Raise InputError at the first n where ``ok`` fails."""
    if not ok.all():
        k = int(np.argmin(ok))
        raise InputError(f"{_call(name, params)} under- or overflows in floating point "
                         f"at n={int(n[k])}: {float(values[k])!r}")


def _evaluate(name: str, args, ns) -> tuple:
    """Row ``name`` at every n in ``ns``: a float array with one value per
    n, each in 0 < value < inf, and the row's regime (None for the rows
    without one)."""
    n, params, (values, regime) = _run(name, args, ns)
    values = np.broadcast_to(np.asarray(values, dtype=float), n.shape)  # a branch free of n gives one value
    _require((0.0 < values) & (values < math.inf), name, params, n, values)
    return values, regime


def _at(name: str, args, n: int):
    values, regime = _evaluate(name, args, (n,))
    return float(values[0]) if regime is None else RegimeConstant(float(values[0]), regime)


def gc_markov_kappas(kappa1: float, L: float, ns) -> np.ndarray:
    """``gc_markov_kappa(kappa1, L, n)`` for every n in ``ns``, as one
    float array, in O(max(ns)) steps."""
    return _evaluate("gc_markov_kappa", (kappa1, L), ns)[0]


def gc_markov_kappa(kappa1: float, L: float, n: int) -> float:
    """Concentration constant kappa_1 * sum_m (sum_{k<m} L^k)^2 for a
    homogeneous chain with an L-Lipschitz kernel; the weak form takes the
    summed dependence coefficient R in place of L."""
    return _at("gc_markov_kappa", (kappa1, L), n)


gc_weak_kappa = gc_markov_kappa


def gc_weak_kappa_general(kappa1: float, M: float, n: int) -> float:
    """Coarse bound kappa_1 (1+M)^(2n) / M^2 when the dependence
    coefficients are merely bounded by M > 0."""
    return _at("gc_weak_kappa_general", (kappa1, M), n)


def ts_markov_alpha(alpha: float, L: float, s: float, n: int) -> RegimeConstant:
    """Order-s transport constant for a homogeneous chain whose kernel is
    L-Lipschitz into (Prob_s, W_s), or (the weak form) under the summed
    dependence bound sum rho_j <= L; constant in n when s = 2 and L < 1."""
    return _at("ts_markov_alpha", (alpha, L, s), n)


ts_weak_alpha = ts_markov_alpha


def ts_general_alpha(alpha: float, M: float, s: float, n: int) -> float:
    """Transport constant alpha ((n e)^(1-s) M / (1+M)^n)^(2/s) when the
    dependence coefficients are merely bounded by M > 0."""
    return _at("ts_general_alpha", (alpha, M, s), n)


def lsi_markov_alpha(alpha: float, L: float, n: int) -> RegimeConstant:
    """Log-Sobolev constant for a chain whose kernel energy has
    off-diagonal Hessian blocks bounded by L in operator norm."""
    return _at("lsi_markov_alpha", (alpha, L), n)


def lsi_weak_alpha_general(
    alpha: float, kappa_matrix, n: int, epsilon: float | str = "auto"
) -> float:
    """Log-Sobolev constant from per-pair coupling strengths kappa_{j,k}.

    ``kappa_matrix[j-1, k-1]`` holds kappa_{j,k} >= 0 for 1 <= k < j <= n.
    For a fixed epsilon the value is
    (alpha / (1+eps)) * (1 + sum_{k=0}^{n-2} prod_{m=k+1}^{n-1} (1+K_m))^(-1)
    with K_j = (1 + 1/eps) * t_j and t_j = sum_{l=0}^{j-1} kappa_{n-l, n-j} / alpha.
    The bracket is summed in the log domain, and ``epsilon="auto"``
    maximizes the log value over eps by golden-section search on log(eps);
    it gives the eps -> 0 limit alpha / n when every t_j is 0. A value
    below the smallest normal double raises ``InputError``.
    The profile is unimodal: with u = 1 + 1/eps the value is
    alpha (u - 1) / (u P(u)), where P is a polynomial with nonnegative
    coefficients, so h(u) = u (u - 1) P'(u) / P(u) is non-decreasing and
    the maximizer solves h(u) = 1. Since u P'/P lies between
    (u t_max / (1 + u t_max)) / n and min(u sum_j t_j, n - 1), the
    maximizer lies in 1 / (2n + sqrt(2n / t_max)) <= eps <= n - 1
    (at n = 2 it is eps* = 1 / sqrt(1 + 2 / t_1)).
    """
    _check(alpha=alpha, n=n)
    kappa = np.zeros((n, n)) if kappa_matrix is None else np.asarray(kappa_matrix, dtype=float)
    if kappa.shape != (n, n):
        raise InputError(f"kappa matrix must be {n}x{n}")
    _check(kappa_matrix=kappa)
    # t_{n-1}, ..., t_1: t_j sums column n-1-j below the diagonal
    t = np.tril(kappa, -1).sum(axis=0)[:-1] / alpha

    def log_value_at(eps: float) -> float:
        # the products over m = k+1..n-1 for k = n-2, ..., 0 are one suffix
        # cumulative sum of logs; it is nondecreasing from 0, so its last
        # entry is the shift of the bracket's log-sum-exp
        logs = np.cumsum(np.log1p((1.0 + 1.0 / eps) * t))
        top = float(logs[-1]) if logs.size else 0.0
        if not math.isfinite(top):
            return -math.inf
        log_bracket = top + math.log(math.exp(-top) + float(np.exp(logs - top).sum()))
        return math.log(alpha) - math.log1p(eps) - log_bracket

    def positive(log_value: float) -> float:
        value = math.exp(log_value)
        if not value >= sys.float_info.min:
            raise InputError(
                f"the log-Sobolev constant underflows: its log is {log_value:.6g}, "
                f"below the smallest normal double"
            )
        return value

    if epsilon != "auto":
        eps = float(epsilon)
        _check(epsilon=eps)
        return positive(log_value_at(eps))
    if not np.any(t > 0):
        return alpha / n

    f = lambda x: log_value_at(math.exp(x))
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = -math.log(2 * n + math.sqrt(2 * n / t.max())), math.log(n - 1)
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return positive(max(f((a + b) / 2.0), fc, fd))


def lsi_weak_alpha(alpha: float, R: float, n: int) -> RegimeConstant:
    """Log-Sobolev constant under sum_l sqrt(rho_l) <= sqrt(R), or (the
    kernel form) for a homogeneous kernel whose coupling MGF is sub-Gaussian
    with parameter R = kappa; at R = 0 the product keeps the constant alpha."""
    return _at("lsi_weak_alpha", (alpha, R), n)


lsi_markov_kernel_alpha = lsi_weak_alpha


def contraction_noise_alpha(alpha: float, L: float, n: int) -> RegimeConstant:
    """Log-Sobolev constant for Z_{j+1} = Theta(Z_j) + Y_{j+1} with an
    L-Lipschitz map and LSI(alpha) noise."""
    return _at("contraction_noise_alpha", (alpha, L), n)


# formula id -> (function, parameter names in call order); the weak and
# kernel ids reuse the Markov or weak formula under their own names
FORMULAS = {
    "gc-markov": (gc_markov_kappa, ("kappa1", "L", "n")),
    "gc-weak": (gc_markov_kappa, ("kappa1", "R", "n")),
    "gc-general": (gc_weak_kappa_general, ("kappa1", "M", "n")),
    "ts-markov": (ts_markov_alpha, ("alpha", "L", "s", "n")),
    "ts-weak": (ts_markov_alpha, ("alpha", "R", "s", "n")),
    "ts-general": (ts_general_alpha, ("alpha", "M", "s", "n")),
    "lsi-markov": (lsi_markov_alpha, ("alpha", "L", "n")),
    "lsi-weak": (lsi_weak_alpha, ("alpha", "R", "n")),
    "lsi-kernel": (lsi_weak_alpha, ("alpha", "kappa", "n")),
    "lsi-contraction": (contraction_noise_alpha, ("alpha", "L", "n")),
}


def sweep(formula: str, params: dict, ns) -> tuple:
    """``FORMULAS[formula]`` at every n in ``ns`` in one array program;
    ``params`` maps the row's other parameter names to their values.
    Returns (values, regime): a float array with one value per n, each bit
    for bit the scalar call at that n, and the row's regime, which does
    not depend on n (None for the rows without one). The summed rows cost
    O(max(ns)) and the closed-form rows O(len(ns))."""
    fn, names = FORMULAS[formula]
    return _evaluate(fn.__name__, [params[k] for k in names if k != "n"], ns)


def _arma_series(scaled: np.ndarray, rho: float) -> tuple:
    """The terms t_0 .. t_{J-1} of sum_j ||scaled^j||_2^2 as one float
    array, and t_J, for the first J with t_J <= 1e-15, or J =
    ``_ARMA_MAX_TERMS``; ``scaled`` is A / sqrt(rho).

    The powers come in blocks, and each block's norms from one batched SVD.
    Since ||A^j|| >= rho^j, t_j >= rho^j stays above 1e-15 for
    j < log(1e-15) / log(rho), so the first block holds P_1 .. P_k up to
    there (built by doubling); ``base`` holds P_1 .. P_k, and the next
    block is P_D @ base = P_{D+1} .. P_{D+k}, with k doubling until a block
    holds ``_BLOCK`` floats."""
    cap = _ARMA_MAX_TERMS
    k = min(math.ceil(math.log(1e-15) / math.log(rho)) + 1, cap, max(1, _BLOCK // scaled.size))
    base = scaled[np.newaxis]
    while len(base) < k:
        base = np.concatenate((base, base[-1] @ base))
    terms, done, base = [np.ones(1)], 0, base[:k]
    block = base
    while True:
        block = block[: cap - done]
        t = np.linalg.svd(block, compute_uv=False)[:, 0] ** 2  # t_{done+1} ..
        small = np.flatnonzero(t <= 1e-15)
        if small.size or done + t.size == cap:
            stop = int(small[0]) if small.size else t.size - 1
            terms.append(t[:stop])
            return np.concatenate(terms), float(t[stop])
        terms.append(t)
        done += t.size
        block = block[-1] @ base
        if base.size < _BLOCK:
            base = np.concatenate((base, block))


def arma_lsi_alpha(A, B) -> float:
    """n-independent log-Sobolev constant for Z_{j+1} = A Z_j + B Y_{j+1}
    with standard Gaussian noise and spectral radius rho(A) < 1.

    Evaluates ((1 - sqrt(rho)) / max(1, ||B||))^2 * S^(-2) with
    S = sum_j t_j, t_j = ||(A / sqrt(rho))^j||^2 = rho^(-j) ||A^j||^2.
    Since t_{i+j} <= t_i t_j, any J with t_J < 1 bounds
    S_J <= S <= S_J / (1 - t_J), S_J = sum_{j<J} t_j. The sum stops at the
    first t_J <= 1e-15, or at J = ``_ARMA_MAX_TERMS``, and the constant is
    built from the upper bound, so it never exceeds the exact one. If
    t_J >= 1 still holds at the cap, ``InputError`` is raised. The powers
    and their norms are made in batches (see ``_arma_series``).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[0] != A.shape[1] or A.shape != B.shape:
        raise InputError("A and B must be square matrices of equal size")
    _check(A=A, B=B)
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    norm_b = float(np.linalg.norm(B, 2))
    if rho >= 1.0:
        raise InputError(f"spectral radius {rho} >= 1: the contraction hypothesis fails")
    if rho == 0.0:
        if np.any(A != 0.0):
            raise InputError(
                "spectral radius 0 with a nonzero (nilpotent) A makes the series "
                "rho^(-j) ||A^j||^2 ill-defined"
            )
        return (1.0 / max(1.0, norm_b)) ** 2  # only the j = 0 term, 1, survives
    terms, tail = _arma_series(A / math.sqrt(rho), rho)
    if not tail < 1.0:
        raise InputError(
            f"the ARMA series has no certified tail after {_ARMA_MAX_TERMS} terms: "
            f"rho^(-J) ||A^J||^2 = {tail:.6g} >= 1"
        )
    series = math.fsum(terms.tolist()) / (1.0 - tail)
    return ((1.0 - math.sqrt(rho)) / max(1.0, norm_b)) ** 2 * series ** (-2.0)


def gaussian_sharp_alpha(mu: GaussianMeasure) -> float:
    """Sharp T_2 and log-Sobolev constant 1 / lambda_max(cov) of a Gaussian
    law (Talagrand 1996; Bakry-Emery): the largest alpha for which N(m, cov)
    satisfies either inequality, so the oracle every constant for a
    Gaussian chain's joint law must stay under. A point mass (zero
    covariance) satisfies both with every alpha and raises ``InputError``."""
    top = float(np.max(np.linalg.eigvalsh(mu.cov)))
    alpha = 1.0 / top if top > 0.0 else math.inf
    if not alpha < math.inf:
        raise InputError(f"gaussian_sharp_alpha: lambda_max(cov) = {top!r} has no finite inverse")
    return alpha


def ou_kappas(rho: float, tau: float, ns, x: float = 0.0) -> dict:
    """``ou_kappa(rho, tau, n, x)`` for every n in ``ns`` in one call, in
    O(max(ns)) steps: theta and sigma2 as floats, and kappa_n and mean_Fn
    as float arrays with one value per n."""
    n, params, out = _run("ou_kappa", (rho, tau, x), ns)
    for key in ("kappa_n", "mean_Fn"):
        _require(np.isfinite(out[key]), "ou_kappa", params, n, out[key])
    return out


def ou_kappa(rho: float, tau: float, n: int, x: float = 0.0) -> dict:
    """Exact constants of the time-discretized Ornstein-Uhlenbeck chain.

    Returns theta = exp(-rho tau), the innovation variance sigma2
    ((1 - theta^2) / (2 rho), formed as -expm1(-2 rho tau) / (2 rho) so
    that it does not cancel for small rho tau, or its limit tau where theta
    rounds to 1),
    the concentration constant kappa_n = sigma2 sum_j (sum_i theta^i)^2 for
    the additive functional sum_j x_j, and its mean x sum_{i=1}^n theta^i.
    """
    out = ou_kappas(rho, tau, (n,), x)
    return {k: float(v[0]) if isinstance(v, np.ndarray) else v for k, v in out.items()}
