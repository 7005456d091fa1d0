"""Explicit inequality constants with regime dispatch.

Every function evaluates one of the closed-form constants for the joint
law of a dependent process: Gaussian-concentration constants, transport
constants for order-s costs with their contractive / critical / expansive
regimes, and logarithmic Sobolev constants for Lipschitz-driven,
ARMA-type and kernel-coupled chains. A geometric sum is exactly ``terms``
at ratio 1, and elsewhere one closed form with no cancellation near 1 (see
``geometric_sum``). The ARMA series stops with a certified tail bound, so
its constant is never too large (see ``arma_lsi_alpha``).

A sweep over many n costs O(max n): ``sweep`` (and ``gc_markov_kappas``,
``ou_kappas``) build the summed forms' per-m terms once, up to the largest
n, and take each n's value as an exact prefix sum, equal bit for bit to
``math.fsum`` of that prefix. The scalar ``gc_markov_kappa`` and
``ou_kappa`` are the one-n case of the same code.
"""
from __future__ import annotations

import functools
import math
import reprlib
import sys
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import InputError, _check
from .measures import GaussianMeasure

_E = math.e

# the most terms arma_lsi_alpha sums before it certifies its tail
_ARMA_MAX_TERMS = 100000

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


def _representable(out) -> bool:
    if isinstance(out, dict):
        return all(map(math.isfinite, out.values()))
    return 0.0 < float(out) < math.inf


def _finite(fn):
    """Make ``fn`` raise ``InputError`` where it under- or overflows: an
    ``ArithmeticError``, a non-finite dict entry, or a constant outside
    0 < value < inf, in its result or in any entry of a sweep's list.
    ``fn`` checks its own inputs first."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except ArithmeticError as exc:
            raise InputError(f"{fn.__name__}{reprlib.repr(args)} overflows in floating point: {exc}") from None
        bad = [v for v in (out if isinstance(out, list) else [out]) if not _representable(v)]
        if not bad:
            return out
        raise InputError(f"{fn.__name__}{reprlib.repr(args)} under- or overflows in floating point: {bad[0]}")

    return checked


def _grow(partials: list, x: float) -> None:
    """Add x exactly to ``partials``, a nonoverlapping expansion in
    increasing magnitude (Shewchuk's partials, the inner loop of
    ``math.fsum``)."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def _prefix_fsums(terms, ns) -> dict:
    """{n: math.fsum of the first n of ``terms``} for every n >= 0 in
    ``ns``, bit for bit, in one pass over the iterable ``terms``. fsum is
    correctly rounded, so any exact expansion of a prefix gives the same
    value: the running prefix is carried as its partials, and the longest
    prefix is one fsum over those and the rest of the stream, so a single
    n costs what fsum costs."""
    wanted = sorted(set(ns))
    if not wanted:
        return {}
    it, partials, done, sums = iter(terms), [], 0, {}
    for n in wanted[:-1]:
        for x in islice(it, n - done):
            _grow(partials, x)
        sums[n] = math.fsum(partials)
        done = n
    sums[wanted[-1]] = math.fsum(chain(partials, islice(it, wanted[-1] - done)))
    return sums


def geometric_sum(ratio: float, terms: int) -> float:
    """sum_{k=0}^{terms-1} ratio**k: exactly ``terms`` at ratio 1, else
    (ratio**terms - 1) / (ratio - 1). For ratio > 0 the numerator is
    expm1(terms log ratio), and ratio - 1 is exact near 1 (Sterbenz), so
    the quotient does not cancel as the ratio nears 1."""
    if ratio == 1.0:
        return float(terms)
    if ratio > 0.0:
        return math.expm1(terms * math.log(ratio)) / (ratio - 1.0)
    return (ratio**terms - 1.0) / (ratio - 1.0)


def _squared_geometric_sums(ratio: float, ns) -> dict:
    """{n: fsum over m = 1..n of geometric_sum(ratio, m) ** 2} for every n
    in ``ns``, in one pass over m <= max(ns)."""
    sums = (geometric_sum(ratio, m) for m in range(1, max(ns, default=0) + 1))
    return _prefix_fsums((g**2 for g in sums), ns)


@_finite
def gc_markov_kappas(kappa1: float, L: float, ns) -> list:
    """``gc_markov_kappa(kappa1, L, n)`` for every n in ``ns``, in
    O(max(ns)) steps."""
    _check(kappa1=kappa1, L=L)
    for n in ns:
        _check(n=n)
    sums = _squared_geometric_sums(L, ns)
    return [kappa1 * sums[n] for n in ns]


def gc_markov_kappa(kappa1: float, L: float, n: int) -> float:
    """Concentration constant kappa_1 * sum_m (sum_{k<m} L^k)^2 for a
    homogeneous chain with an L-Lipschitz kernel; the weak form takes the
    summed dependence coefficient R in place of L."""
    return gc_markov_kappas(kappa1, L, (n,))[0]


gc_weak_kappa = gc_markov_kappa


@_finite
def gc_weak_kappa_general(kappa1: float, M: float, n: int) -> float:
    """Coarse bound kappa_1 (1+M)^(2n) / M^2 when the dependence
    coefficients are merely bounded by M > 0."""
    _check(kappa1=kappa1, M=M, n=n)
    return kappa1 * (1.0 + M) ** (2 * n) / M**2


@_finite
def ts_markov_alpha(alpha: float, L: float, s: float, n: int) -> RegimeConstant:
    """Order-s transport constant for a homogeneous chain whose kernel is
    L-Lipschitz into (Prob_s, W_s), or (the weak form) under the summed
    dependence bound sum rho_j <= L; constant in n when s = 2 and L < 1."""
    _check(alpha=alpha, L=L, s=s, n=n)
    if L < 1.0:
        return RegimeConstant(n ** (1.0 - 2.0 / s) * (1.0 - L ** (1.0 / s)) ** 2 * alpha, CONTRACTIVE)
    if L == 1.0:
        # critical branch normalized to carry the same alpha factor as its
        # neighbours; (n+1) exponent from the gamma = 1 + 1/n choice
        return RegimeConstant(_E ** (2.0 / s - 2.0) * (n + 1) ** (-2.0 / s - 1.0) * alpha, CRITICAL)
    value = ((L - 1.0) / (_E ** (s - 1.0) * L**n)) ** (2.0 / s) * alpha / (n + 1)
    return RegimeConstant(value, EXPANSIVE)


ts_weak_alpha = ts_markov_alpha


@_finite
def ts_general_alpha(alpha: float, M: float, s: float, n: int) -> float:
    """Transport constant alpha ((n e)^(1-s) M / (1+M)^n)^(2/s) when the
    dependence coefficients are merely bounded by M > 0."""
    _check(alpha=alpha, M=M, s=s, n=n)
    return alpha * ((n * _E) ** (1.0 - s) * M / (1.0 + M) ** n) ** (2.0 / s)


@_finite
def lsi_markov_alpha(alpha: float, L: float, n: int) -> RegimeConstant:
    """Log-Sobolev constant for a chain whose kernel energy has
    off-diagonal Hessian blocks bounded by L in operator norm."""
    _check(alpha=alpha, L=L, n=n)
    if L < alpha:
        return RegimeConstant((alpha - L) ** 2 / alpha, CONTRACTIVE)
    if L == alpha:
        return RegimeConstant(alpha / (n * (n + 1) * (_E - 1.0)), CRITICAL)
    value = (alpha / L) ** (2 * n) * (L**2 - alpha**2) / (alpha * _E * (n + 1))
    return RegimeConstant(value, EXPANSIVE)


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


@_finite
def lsi_weak_alpha(alpha: float, R: float, n: int) -> RegimeConstant:
    """Log-Sobolev constant under sum_l sqrt(rho_l) <= sqrt(R), or (the
    kernel form) for a homogeneous kernel whose coupling MGF is sub-Gaussian
    with parameter R = kappa; at R = 0 the product keeps the constant alpha."""
    _check(alpha=alpha, R=R, n=n)
    if R < alpha:
        return RegimeConstant((math.sqrt(alpha) - math.sqrt(R)) ** 2, CONTRACTIVE)
    if R == alpha:
        return RegimeConstant(alpha / (n * (n + 1) * (_E - 1.0)), CRITICAL)
    return RegimeConstant((alpha / R) ** n * (R - alpha) / (_E * (n + 1)), EXPANSIVE)


lsi_markov_kernel_alpha = lsi_weak_alpha


@_finite
def contraction_noise_alpha(alpha: float, L: float, n: int) -> RegimeConstant:
    """Log-Sobolev constant for Z_{j+1} = Theta(Z_j) + Y_{j+1} with an
    L-Lipschitz map and LSI(alpha) noise."""
    _check(alpha=alpha, L=L, n=n)
    if L < 1.0:
        return RegimeConstant((1.0 - L) ** 2 * alpha, CONTRACTIVE)
    if L == 1.0:
        return RegimeConstant(alpha / (n * (n + 1) * (_E - 1.0)), CRITICAL)
    return RegimeConstant((L - 1.0) * alpha / (L**n * _E * (n + 1)), EXPANSIVE)


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
# the rows whose value sums over m <= n; the others are closed form in n
_SUMMED = frozenset({"gc-markov", "gc-weak"})


def sweep(formula: str, params: dict, ns) -> list:
    """``FORMULAS[formula]`` at every n in ``ns``, in one call; ``params``
    maps the row's other parameter names to their values. The summed rows
    build their terms once, up to max(ns), and the closed-form rows cost
    O(1) per n, so a sweep over n = 1..N is O(N)."""
    fn, names = FORMULAS[formula]
    if formula in _SUMMED:
        return gc_markov_kappas(*(params[k] for k in names if k != "n"), ns)
    return [fn(*(n if k == "n" else params[k] for k in names)) for n in ns]


def arma_lsi_alpha(A, B) -> float:
    """n-independent log-Sobolev constant for Z_{j+1} = A Z_j + B Y_{j+1}
    with standard Gaussian noise and spectral radius rho(A) < 1.

    Evaluates ((1 - sqrt(rho)) / max(1, ||B||))^2 * S^(-2) with
    S = sum_j t_j, t_j = ||(A / sqrt(rho))^j||^2 = rho^(-j) ||A^j||^2.
    Since t_{i+j} <= t_i t_j, any J with t_J < 1 bounds
    S_J <= S <= S_J / (1 - t_J), S_J = sum_{j<J} t_j. The sum stops at the
    first t_J <= 1e-15, or at J = ``_ARMA_MAX_TERMS``, and the constant is
    built from the upper bound, so it never exceeds the exact one. If
    t_J >= 1 still holds at the cap, ``InputError`` is raised.
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
    scaled = A / math.sqrt(rho)
    terms, term, power = [], 1.0, np.eye(A.shape[0])
    for _ in range(_ARMA_MAX_TERMS):
        terms.append(term)
        power = power @ scaled
        term = float(np.linalg.svd(power, compute_uv=False)[0]) ** 2  # ||power||_2^2
        if term <= 1e-15:
            break
    if not term < 1.0:
        raise InputError(
            f"the ARMA series has no certified tail after {_ARMA_MAX_TERMS} terms: "
            f"rho^(-J) ||A^J||^2 = {term:.6g} >= 1"
        )
    series = math.fsum(terms) / (1.0 - term)
    return ((1.0 - math.sqrt(rho)) / max(1.0, norm_b)) ** 2 * series ** (-2.0)


@_finite
def gaussian_sharp_alpha(mu: GaussianMeasure) -> float:
    """Sharp T_2 and log-Sobolev constant 1 / lambda_max(cov) of a Gaussian
    law (Talagrand 1996; Bakry-Emery): the largest alpha for which N(m, cov)
    satisfies either inequality, so the oracle every constant for a
    Gaussian chain's joint law must stay under. A point mass (zero
    covariance) satisfies both with every alpha and raises ``InputError``."""
    return 1.0 / float(np.max(np.linalg.eigvalsh(mu.cov)))


@_finite
def ou_kappas(rho: float, tau: float, ns, x: float = 0.0) -> list:
    """``ou_kappa(rho, tau, n, x)`` for every n in ``ns``, in O(max(ns))
    steps."""
    _check(rho=rho, tau=tau)
    for n in ns:
        _check(n=n)
    theta = math.exp(-rho * tau)
    # where theta rounds to 1, tau is within 1.1e-16 of sigma2, while a
    # subnormal 2 rho tau would lose digits (rho = 5e-324, tau = 0.3 gives 0.5)
    sigma2 = tau if theta == 1.0 else -math.expm1(-2.0 * rho * tau) / (2.0 * rho)
    kappa = _squared_geometric_sums(theta, ns)
    mean = _prefix_fsums((theta**i for i in range(1, max(ns, default=0) + 1)), ns)
    return [{"theta": theta, "sigma2": sigma2, "kappa_n": sigma2 * kappa[n], "mean_Fn": x * mean[n]}
            for n in ns]


def ou_kappa(rho: float, tau: float, n: int, x: float = 0.0) -> dict:
    """Exact constants of the time-discretized Ornstein-Uhlenbeck chain.

    Returns theta = exp(-rho tau), the innovation variance sigma2
    ((1 - theta^2) / (2 rho), formed as -expm1(-2 rho tau) / (2 rho) so
    that it does not cancel for small rho tau, or its limit tau where theta
    rounds to 1),
    the concentration constant kappa_n = sigma2 sum_j (sum_i theta^i)^2 for
    the additive functional sum_j x_j, and its mean x sum_{i=1}^n theta^i.
    """
    return ou_kappas(rho, tau, (n,), x)[0]
