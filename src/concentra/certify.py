"""Empirical certification of concentration, transport and log-Sobolev
inequalities.

Certification is one-sided by construction: a pass only says that no
member of the generated test family violates the inequality at the given
constant. Certificates therefore record the family size and a witness
that re-evaluates to the reported worst slack, so every verdict can be
replayed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import logsumexp

from .entropy import relative_entropy_discrete
from .errors import InputError
from .measures import DiscreteMeasure, REAL_LINE
from .transport import wasserstein_1d, wasserstein_exact

GC = "GC"
TS = "T_s"
LSI = "LSI"

SLACK_TOL = 1e-9
REPLAY_TOL = 1e-9


@dataclass(frozen=True)
class Certificate:
    """Outcome of one inequality check at one constant."""

    inequality: str
    constant: float
    order_s: float | None
    worst_slack: float
    witness: dict
    verdict: str
    search_size: int
    tolerance: float = SLACK_TOL
    family: str = ""
    grid_h: float | None = None

    def __post_init__(self):
        expected = "pass" if self.worst_slack <= self.tolerance else "fail"
        if self.verdict != expected:
            raise InputError("verdict inconsistent with worst slack and tolerance")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _verdict(worst: float, tol: float) -> str:
    return "pass" if worst <= tol else "fail"


def _support_distances(mu: DiscreteMeasure) -> np.ndarray:
    return mu.resolved_space().pairwise(mu.support, mu.support)


def lipschitz_polytope_vertices(dist: np.ndarray) -> list[np.ndarray]:
    """All extreme 1-Lipschitz functions on a small metric space, up to an
    additive constant (anchored at point 0).

    A vertex is determined by a spanning tree of tight constraints
    f_i - f_j = +/- d_ij; every tree/sign assignment is solved by
    traversal and kept when it satisfies all remaining constraints.
    """
    n = dist.shape[0]
    if n > 6:
        raise InputError("vertex enumeration is limited to 6 points")
    if n == 1:
        return [np.zeros(1)]
    edges = list(itertools.combinations(range(n), 2))
    out = {}
    for tree in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        ok = True
        for i, j in tree:
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if not ok:
            continue
        adj = {i: [] for i in range(n)}
        for idx, (i, j) in enumerate(tree):
            adj[i].append((j, idx))
            adj[j].append((i, idx))
        for signs in itertools.product((1.0, -1.0), repeat=n - 1):
            f = np.full(n, np.nan)
            f[0] = 0.0
            stack = [0]
            while stack:
                u = stack.pop()
                for v, idx in adj[u]:
                    if not np.isnan(f[v]):
                        continue
                    i, j = tree[idx]
                    delta = signs[idx] * dist[i, j]  # f_i - f_j = delta
                    f[v] = f[u] + delta if v == i else f[u] - delta
                    stack.append(v)
            gaps = np.abs(f[:, None] - f[None, :])
            if np.max(gaps - dist) <= 1e-12:
                out[tuple(np.round(f, 12))] = f
    return list(out.values())


def lipschitz_family(
    mu: DiscreteMeasure, family_size: int = 64, seed: int = 0
) -> list[np.ndarray]:
    """1-Lipschitz test functions evaluated on the support of ``mu``.

    Distance functions to each support point, seeded McShane extensions
    min_j (v_j + d(x, x_j)), and (on supports of at most 6 points) every
    extreme point of the Lipschitz polytope.
    """
    dist = _support_distances(mu)
    n = dist.shape[0]
    family = [dist[:, j].copy() for j in range(n)]
    diam = float(dist.max()) or 1.0
    rng = np.random.default_rng(seed)
    for _ in range(family_size):
        v = rng.uniform(0.0, diam, size=n)
        family.append(np.min(v[None, :] + dist, axis=1))
    if n <= 6:
        family.extend(lipschitz_polytope_vertices(dist))
    return family


def default_t_grid() -> np.ndarray:
    pos = np.geomspace(1e-2, 8.0, 20)
    return np.concatenate([-pos[::-1], [0.0], pos])


def gc_slack(mu: DiscreteMeasure, kappa: float, f_values: np.ndarray, t: float) -> float:
    """log int e^{tF} dmu - t int F dmu - kappa t^2 / 2."""
    w = mu.weights
    logw = np.log(np.where(w > 0, w, 1.0))
    mask = w > 0
    lse = float(logsumexp(logw[mask] + t * f_values[mask]))
    mean = float(np.dot(w, f_values))
    return lse - t * mean - kappa * t**2 / 2.0


def check_gc(
    mu: DiscreteMeasure,
    kappa: float,
    t_grid: Sequence[float] | None = None,
    family_size: int = 64,
    seed: int = 0,
) -> Certificate:
    """Certify or falsify the sub-Gaussian MGF bound at constant kappa."""
    if kappa <= 0:
        raise InputError("kappa must be positive")
    t_grid = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    family = lipschitz_family(mu, family_size, seed)
    worst = -math.inf
    witness = {}
    count = 0
    for fi, f in enumerate(family):
        zero = gc_slack(mu, kappa, f, 0.0)
        assert abs(zero) < 1e-12, "GC slack must vanish at t = 0"
        for t in t_grid:
            count += 1
            s = gc_slack(mu, kappa, f, float(t))
            if s > worst:
                worst = s
                witness = {"f_values": [float(v) for v in f], "t": float(t), "family_index": fi}
    return Certificate(
        inequality=GC,
        constant=float(kappa),
        order_s=None,
        worst_slack=float(worst),
        witness=witness,
        verdict=_verdict(worst, SLACK_TOL),
        search_size=count,
        family=f"dist+mcshane[{family_size}]" + ("+vertices" if len(mu) <= 6 else ""),
    )


def tilt_family(
    mu: DiscreteMeasure,
    seed: int = 0,
    family_size: int = 24,
    t_grid: Sequence[float] | None = None,
) -> list[DiscreteMeasure]:
    """Default perturbations: exponential tilts e^{tF} mu of the Lipschitz
    family, plus seeded random reweightings."""
    t_grid = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    t_grid = [t for t in t_grid if t != 0.0 and abs(t) <= 2.0]
    family = lipschitz_family(mu, family_size=8, seed=seed)
    out = [mu]
    w = mu.weights
    for f in family:
        for t in t_grid:
            logits = np.log(np.where(w > 0, w, 1e-300)) + t * f
            weights = np.exp(logits - logsumexp(logits))
            out.append(DiscreteMeasure(mu.support, weights / weights.sum(), space=mu.space))
    rng = np.random.default_rng(seed + 1)
    for _ in range(family_size):
        weights = rng.dirichlet(np.ones(len(mu)))
        out.append(DiscreteMeasure(mu.support, weights, space=mu.space))
    return out


def _ws(nu: DiscreteMeasure, mu: DiscreteMeasure, s: float) -> float:
    if mu.space is None and not isinstance(mu.support[0], (tuple, list)):
        return wasserstein_1d(nu, mu, s)
    return wasserstein_exact(nu, mu, s)[0]


def transport_slack(nu: DiscreteMeasure, mu: DiscreteMeasure, alpha: float, s: float) -> float:
    ent = relative_entropy_discrete(nu, mu)
    if math.isinf(ent):
        return -math.inf  # the bound is vacuous for non-absolutely-continuous nu
    return _ws(nu, mu, s) - math.sqrt(2.0 * ent / alpha)


def check_transport(
    mu: DiscreteMeasure,
    alpha: float,
    s: float,
    perturbation_family: Sequence[DiscreteMeasure] | None = None,
    seed: int = 0,
) -> Certificate:
    """Certify or falsify W_s(nu, mu) <= sqrt(2 Ent(nu|mu) / alpha) over a
    perturbation family."""
    if alpha <= 0:
        raise InputError("alpha must be positive")
    family = tilt_family(mu, seed) if perturbation_family is None else list(perturbation_family)
    if not family:
        raise InputError("empty perturbation family")
    worst = -math.inf
    witness = {}
    for i, nu in enumerate(family):
        slack = transport_slack(nu, mu, alpha, s)
        if slack > worst:
            worst = slack
            witness = {
                "family_index": i,
                "support": [p for p in nu.support],
                "weights": [float(w) for w in nu.weights],
            }
    return Certificate(
        inequality=TS,
        constant=float(alpha),
        order_s=float(s),
        worst_slack=float(worst),
        witness=witness,
        verdict=_verdict(worst, SLACK_TOL),
        search_size=len(family),
        family="tilts+dirichlet" if perturbation_family is None else "user",
    )


def _grid_gradient(f: np.ndarray, h: float) -> np.ndarray:
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    g[0] = (f[1] - f[0]) / h
    g[-1] = (f[-1] - f[-2]) / h
    return g


def lsi_slack(weights: np.ndarray, f: np.ndarray, h: float, alpha: float) -> float:
    """Ent_mu(f^2) - (2/alpha) int |f'|^2 dmu on a uniform grid."""
    f2 = f**2
    m = float(np.dot(weights, f2))
    if m <= 0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(f2 > 0, np.log(np.where(f2 > 0, f2, 1.0) / m), 0.0)
    ent = float(np.dot(weights, f2 * logs))
    dirichlet = float(np.dot(weights, _grid_gradient(f, h) ** 2))
    return ent - 2.0 / alpha * dirichlet


def default_lsi_family(grid: np.ndarray, seed: int = 0, bumps: int = 16) -> list[np.ndarray]:
    x = grid
    family = [x, x**2, x**3, x**4, 1.0 + x, 1.0 + x + x**2]
    for t in (0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0):
        family.append(np.exp(t * x / 2.0))
    rng = np.random.default_rng(seed)
    span = x[-1] - x[0]
    for _ in range(bumps):
        k = rng.integers(1, 4)
        f = np.zeros_like(x)
        for _ in range(k):
            a = rng.uniform(-1.0, 1.0)
            c = rng.uniform(x[0] + 0.2 * span, x[-1] - 0.2 * span)
            width = rng.uniform(0.05 * span, 0.3 * span)
            f = f + a * np.exp(-((x - c) ** 2) / (2.0 * width**2))
        family.append(1.0 + f)
    return family


def check_lsi_grid(
    grid: np.ndarray,
    density: np.ndarray,
    alpha: float,
    test_functions: Sequence[np.ndarray] | None = None,
    seed: int = 0,
) -> Certificate:
    """Certify or falsify the log-Sobolev inequality for a density sampled
    on a uniform 1-D grid, with central-difference gradients.

    The pass tolerance carries an O(h^2) allowance on top of the 1e-6
    base, and the certificate records h so the allowance is explicit.
    """
    grid = np.asarray(grid, dtype=float)
    density = np.asarray(density, dtype=float)
    if grid.ndim != 1 or grid.size < 3 or density.shape != grid.shape:
        raise InputError("grid and density must be matching 1-D arrays")
    steps = np.diff(grid)
    h = float(steps[0])
    if np.max(np.abs(steps - h)) > 1e-9 * h:
        raise InputError("grid must be uniform")
    if np.any(density <= 0):
        raise InputError("density must be strictly positive on the grid")
    if alpha <= 0:
        raise InputError("alpha must be positive")
    weights = density / density.sum()
    family = default_lsi_family(grid, seed) if test_functions is None else list(test_functions)
    tol = 1e-6 + 10.0 * h**2
    worst = -math.inf
    witness = {}
    for i, f in enumerate(family):
        f = np.asarray(f, dtype=float)
        s = lsi_slack(weights, f, h, alpha)
        if s > worst:
            worst = s
            witness = {"family_index": i, "f_values": [float(v) for v in f]}
    return Certificate(
        inequality=LSI,
        constant=float(alpha),
        order_s=None,
        worst_slack=float(worst),
        witness=witness,
        verdict=_verdict(worst, tol),
        search_size=len(family),
        tolerance=tol,
        family="poly+exp+bumps" if test_functions is None else "user",
        grid_h=h,
    )


def replay(cert: Certificate, mu=None, alpha=None, grid=None, density=None) -> float:
    """Re-evaluate a certificate's witness; must reproduce worst_slack."""
    if cert.inequality == GC:
        f = np.asarray(cert.witness["f_values"])
        slack = gc_slack(mu, cert.constant, f, cert.witness["t"])
    elif cert.inequality == TS:
        nu = DiscreteMeasure(
            tuple(cert.witness["support"]),
            np.asarray(cert.witness["weights"]),
            space=mu.space,
        )
        slack = transport_slack(nu, mu, cert.constant, cert.order_s)
    elif cert.inequality == LSI:
        weights = np.asarray(density, dtype=float)
        weights = weights / weights.sum()
        slack = lsi_slack(weights, np.asarray(cert.witness["f_values"]), cert.grid_h, cert.constant)
    else:
        raise InputError(f"unknown inequality {cert.inequality!r}")
    if abs(slack - cert.worst_slack) > REPLAY_TOL:
        raise InputError("witness does not replay to the recorded slack")
    return slack


def best_constant(
    checker: Callable[[float], Certificate],
    bracket: tuple[float, float],
    increasing_is_weaker: bool = True,
) -> float:
    """Bisect the pass/fail boundary of a monotone checker.

    The bracket ends must normally disagree; bisection runs to relative
    width 1e-4 and the observed verdicts are checked to be monotone in
    the constant. Returns the midpoint of the final bracket. A bracket
    that passes at both ends is degenerate (the boundary lies outside):
    the strongest end is returned, which for concentration-style
    constants (``increasing_is_weaker``) is the lower one.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise InputError("bracket must satisfy lo < hi")
    trace = []
    c_lo = checker(lo)
    c_hi = checker(hi)
    trace += [(lo, c_lo.passed), (hi, c_hi.passed)]
    if c_lo.passed and c_hi.passed:
        return lo if increasing_is_weaker else hi
    if c_lo.passed == c_hi.passed:
        raise InputError("bracket does not straddle the pass/fail boundary")
    while (hi - lo) > 1e-4 * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        passed = checker(mid).passed
        trace.append((mid, passed))
        if passed == c_lo.passed:
            lo = mid
        else:
            hi = mid
    trace.sort()
    flips = sum(1 for a, b in zip(trace, trace[1:]) if a[1] != b[1])
    if flips != 1:
        raise InputError("verdicts are not monotone in the constant")
    return 0.5 * (lo + hi)


def check_bg_duality(mu: DiscreteMeasure, kappa: float, seed: int = 0) -> dict:
    """Check GC(kappa) and T_1(1/kappa) side by side.

    The two are equivalent in principle; a disagreement here means one
    test family was too weak, not that a counterexample was found.
    """
    if kappa <= 0:
        raise InputError("kappa must be positive")
    gc_cert = check_gc(mu, kappa, seed=seed)
    t1_cert = check_transport(mu, 1.0 / kappa, 1.0, seed=seed)
    return {
        "gc_verdict": gc_cert.verdict,
        "t1_verdict": t1_cert.verdict,
        "agree": gc_cert.passed == t1_cert.passed,
        "gc_certificate": gc_cert,
        "t1_certificate": t1_cert,
    }
