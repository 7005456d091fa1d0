"""Reference routes the benchmark checks library output against.

Everything here is written with NumPy/SciPy directly and shares no code
with the routes being timed: quantile-formula W_s on the real line,
broadcast cost matrices, Bures W_2 between Gaussians, explicit joint laws
of tabular chains, direct-summation constants and marginal lower bounds
on joint transport costs.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

TOL = 1e-7


class CheckFailed(Exception):
    """A job's output disagrees with the reference route."""

    def __init__(self, reason: str, defect: str | None = None):
        super().__init__(reason)
        self.defect = defect


def require(ok: bool, reason: str, defect: str | None = None) -> None:
    if not ok:
        raise CheckFailed(reason, defect)


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ------------------------------------------------------------ transport

def quantile_ws(x, wx, y, wy, s: float) -> float:
    """W_s on the real line from the merged quantile functions."""
    x, wx, y, wy = (np.asarray(v, dtype=float) for v in (x, wx, y, wy))
    ix, iy = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    cx, cy = np.cumsum(wx[ix]), np.cumsum(wy[iy])
    cx[-1] = cy[-1] = 1.0
    breaks = np.union1d(cx, cy)
    lengths = np.diff(np.concatenate([[0.0], breaks]))
    mids = breaks - lengths / 2.0
    qx = x[ix][np.minimum(np.searchsorted(cx, mids), x.size - 1)]
    qy = y[iy][np.minimum(np.searchsorted(cy, mids), y.size - 1)]
    return float(max(np.sum(lengths * np.abs(qx - qy) ** s), 0.0) ** (1.0 / s))


def l1_cost(px: np.ndarray, py: np.ndarray, s: float) -> np.ndarray:
    """Cost |x - y|_1^s between point rows, by broadcasting."""
    d = np.abs(px[:, None, :] - py[None, :, :]).sum(axis=-1)
    return d**s


def bures_w2(m1, c1, m2, c2) -> float:
    """W_2 between Gaussians, with the square roots taken around c2."""
    vals, vecs = np.linalg.eigh(c2)
    r2 = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    inner = r2 @ c1 @ r2
    cross = np.sqrt(np.clip(np.linalg.eigvalsh((inner + inner.T) / 2.0), 0.0, None)).sum()
    gap = float(np.sum((np.asarray(m1) - np.asarray(m2)) ** 2))
    return math.sqrt(max(gap + np.trace(c1) + np.trace(c2) - 2.0 * cross, 0.0))


def discrete_kl(q_support, q_w, p_support, p_w) -> float:
    """KL(q | p) for measures given as hashable support lists."""
    p = dict(zip(p_support, np.asarray(p_w, dtype=float)))
    total = 0.0
    for x, w in zip(q_support, np.asarray(q_w, dtype=float)):
        if w == 0.0:
            continue
        if p.get(x, 0.0) == 0.0:
            return math.inf
        total += w * math.log(w / p[x])
    return max(total, 0.0)


# --------------------------------------------------------------- chains

def gaussian_chain(theta, sigma2, init_mean, init_var, n):
    """Mean and covariance of (X_1..X_n) for X_k = theta X_{k-1} + N(0, sigma2)."""
    lin = np.zeros((n, n))  # X = mean + lin @ (standard normal innovations)
    lin[0, 0] = math.sqrt(init_var)
    mean = np.zeros(n)
    mean[0] = init_mean
    for k in range(1, n):
        lin[k] = theta * lin[k - 1]
        lin[k, k] = math.sqrt(sigma2)
        mean[k] = theta * mean[k - 1]
    return mean, lin @ lin.T


def ou_kernel(rho, tau, x0):
    theta = math.exp(-rho * tau)
    sigma2 = tau if rho == 0.0 else (1.0 - theta * theta) / (2.0 * rho)
    return theta, sigma2, theta * x0, sigma2


def tabular_paths(init, trans, n):
    """All positive-probability paths of a tabular chain and their weights."""
    init, trans = np.asarray(init, float), np.asarray(trans, float)
    k = init.size
    idx = np.array(np.unravel_index(np.arange(k**n), (k,) * n)).T
    w = init[idx[:, 0]].copy()
    for step in range(1, n):
        w *= trans[idx[:, step - 1], idx[:, step]]
    keep = w > 0
    return idx[keep], w[keep]


def tabular_marginals(init, trans, n):
    out = [np.asarray(init, float)]
    for _ in range(1, n):
        out.append(out[-1] @ np.asarray(trans, float))
    return out


def marginal_lower_bound(labels, q, p, n, s) -> float:
    """(sum_k W_s(q_k, p_k)^s)^(1/s) over the time marginals: a lower bound
    on W_s between the joint laws under the order-s product metric."""
    mq = tabular_marginals(q[0], q[1], n)
    mp = tabular_marginals(p[0], p[1], n)
    total = sum(quantile_ws(labels, a, labels, b, s) ** s for a, b in zip(mq, mp))
    return total ** (1.0 / s)


# ------------------------------------------------------------ constants

def _geo(r, m):
    acc, term = 0.0, 1.0
    for _ in range(m):
        acc += term
        term *= r
    return acc


def constant_oracle(formula: str, v: dict, n: int) -> float:
    """Direct evaluation of each CLI formula id at horizon n."""
    e = math.e
    if formula in ("gc-markov", "gc-weak"):
        r = v["L"] if formula == "gc-markov" else v["R"]
        return v["kappa1"] * sum(_geo(r, m) ** 2 for m in range(1, n + 1))
    if formula == "gc-general":
        prod = 1.0
        for _ in range(2 * n):
            prod *= 1.0 + v["M"]
        return v["kappa1"] * prod / v["M"] ** 2
    if formula in ("ts-markov", "ts-weak"):
        a, s = v["alpha"], v["s"]
        r = v["L"] if formula == "ts-markov" else v["R"]
        if r < 1.0:
            return n ** (1 - 2 / s) * (1 - r ** (1 / s)) ** 2 * a
        if r == 1.0:
            return e ** (2 / s - 2) * (n + 1) ** (-2 / s - 1) * a
        return ((r - 1) / (e ** (s - 1) * r**n)) ** (2 / s) * a / (n + 1)
    if formula == "ts-general":
        a, m, s = v["alpha"], v["M"], v["s"]
        return a * ((n * e) ** (1 - s) * m / (1 + m) ** n) ** (2 / s)
    if formula == "lsi-markov":
        a, lip = v["alpha"], v["L"]
        if lip < a:
            return (a - lip) ** 2 / a
        if lip == a:
            return a / (n * (n + 1) * (e - 1))
        return (a / lip) ** (2 * n) * (lip**2 - a**2) / (a * e * (n + 1))
    if formula in ("lsi-weak", "lsi-kernel"):
        a = v["alpha"]
        r = v["R"] if formula == "lsi-weak" else v["kappa"]
        if r < a:
            return (math.sqrt(a) - math.sqrt(r)) ** 2
        if r == a:
            return a / (n * (n + 1) * (e - 1))
        return (a / r) ** n * (r - a) / (e * (n + 1))
    if formula == "lsi-contraction":
        a, lip = v["alpha"], v["L"]
        if lip < 1.0:
            return (1 - lip) ** 2 * a
        if lip == 1.0:
            return a / (n * (n + 1) * (e - 1))
        return (lip - 1) * a / (lip**n * e * (n + 1))
    if formula == "ou":
        theta, sigma2, _, _ = ou_kernel(v["rho"], v["tau"], 0.0)
        return sigma2 * sum(_geo(theta, n - j) ** 2 for j in range(n))
    if formula == "arma":
        return arma_alpha(np.asarray(v["A"], float), np.asarray(v["B"], float))
    raise ValueError(formula)


def arma_alpha(a: np.ndarray, b: np.ndarray) -> float:
    """((1 - sqrt(rho)) / max(1, |B|))^2 / S^2 with S summed until its
    terms fall below 1e-18 of the partial sum."""
    rho = float(np.max(np.abs(np.linalg.eigvals(a))))
    total, power, j = 1.0, np.eye(a.shape[0]), 0
    while True:
        j += 1
        power = power @ a
        term = float(np.linalg.norm(power, 2) ** 2) / rho**j
        total += term
        if term < 1e-18 * total or j > 200000:
            break
    return ((1.0 - math.sqrt(rho)) / max(1.0, float(np.linalg.norm(b, 2)))) ** 2 / total**2


def arma_exact_alpha(a: np.ndarray, b: np.ndarray, n: int) -> float:
    """1 / lambda_max of the covariance of (Z_0..Z_{n-1}), built as L L^T
    from the linear map taking (Z_0, Y_1..Y_{n-1}) to the stacked path."""
    m = a.shape[0]
    lin = np.zeros((n * m, n * m))
    lin[:m, :m] = np.eye(m)
    for k in range(1, n):
        lin[k * m : (k + 1) * m] = a @ lin[(k - 1) * m : k * m]
        lin[k * m : (k + 1) * m, k * m : (k + 1) * m] += b
    return 1.0 / float(np.max(np.linalg.eigvalsh(lin @ lin.T)))


# -------------------------------------------------------------- certify

def gc_slack_ref(weights, f, kappa, t) -> float:
    w = np.asarray(weights, float)
    f = np.asarray(f, float)
    mask = w > 0
    return float(logsumexp(np.log(w[mask]) + t * f[mask]) - t * np.dot(w, f) - kappa * t * t / 2)
