"""The three batch workloads: jobs built from a seed, each with a check.

A workload is a prologue (jobs run once per batch) followed by decks.
Every deck has the same composition of job kinds; sizes within a kind are
stratified across decks, so a batch covers each kind's size range evenly
whatever the seed. Inputs are built here, before timing starts; the
library sees only these generated inputs.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import concentra as cx
import concentra.cli
from checks import (
    CheckFailed,
    arma_alpha,
    arma_exact_alpha,
    bures_w2,
    close,
    constant_oracle,
    discrete_kl,
    gaussian_chain,
    gc_slack_ref,
    l1_cost,
    marginal_lower_bound,
    ou_kernel,
    quantile_ws,
    require,
    tabular_marginals,
    tabular_paths,
)

# Failures the benchmark expects at the commit that defined it. They are
# counted in `failed` like any other failure; they only keep `correct`
# true. A failure with any other cause makes the run incorrect.
KNOWN_DEFECTS = {
    "coupling-gaussian-below-exact": (
        "differing-kernel Gaussian coupling bound falls below the exact joint W2: "
        "the step cost omits the innovation term (ROADMAP item 1)"
    ),
    "coupling-atom-budget": (
        "default-resolution differing-kernel Gaussian coupling exceeds the atom "
        "budget and raises ResourceError (ROADMAP item 1)"
    ),
    "verify-ou-false-falsification": (
        "verify-ou fails an MGF check although kappa_n and the mean are exact: for large "
        "s^2 kappa_n the sample mean of e^(sF) is heavy-tailed and its standard error is "
        "not valid, so a fixed 3-standard-error band rejects the true value"
    ),
    "certify-ts-replay-roundoff": (
        "replay rejects a passing T_s certificate whose witness is mu itself: rebuilding "
        "the witness renormalizes its weights, the relative entropy becomes ~1e-16 instead "
        "of 0, and its square root moves the slack by ~1e-8, above REPLAY_TOL"
    ),
}


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # exception class name -> known defect id, for errors the library is known to raise
    known_errors: dict = field(default_factory=dict)
    cli_out: str | None = None


class Sizes:
    """Stratified uniforms: slot j of deck d draws from stratum perm_j[d]."""

    def __init__(self, seed: int, wl: int, decks: int):
        self.seed, self.wl, self.decks = seed, wl, decks
        self._strata: dict = {}

    def u(self, slot: int, deck: int) -> float:
        if slot not in self._strata:
            rng = np.random.default_rng([self.seed, self.wl, slot])
            self._strata[slot] = (rng.permutation(self.decks) + rng.random(self.decks)) / self.decks
        return float(self._strata[slot][deck])

    def rng(self, slot: int, deck: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.wl, 1000 + slot, deck])


def _lerp(lo, hi, u):
    return lo + (hi - lo) * u


def _logint(lo, hi, u):
    return int(round(lo * (hi / lo) ** u))


def _weights(rng, n):
    return rng.dirichlet(np.full(n, 2.0))


# ============================================================ distances

def _real_pair(rng, n):
    """mu on n points of the line; nu on a random subset (so KL(nu|mu) < inf)."""
    x = rng.normal(0.0, 1.0, n)
    m = max(2, int(round(n * rng.uniform(0.6, 1.0))))
    sub = np.sort(rng.choice(n, m, replace=False))
    mu = cx.DiscreteMeasure(tuple(x.tolist()), _weights(rng, n))
    nu = cx.DiscreteMeasure(tuple(x[sub].tolist()), _weights(rng, m))
    return mu, nu


def _plane_pair(rng, n):
    p = rng.normal(0.0, 1.0, (n, 2))
    m = max(2, int(round(n * rng.uniform(0.6, 1.0))))
    sub = np.sort(rng.choice(n, m, replace=False))
    mu = cx.DiscreteMeasure(tuple(map(tuple, p.tolist())), _weights(rng, n))
    nu = cx.DiscreteMeasure(tuple(map(tuple, p[sub].tolist())), _weights(rng, m))
    return mu, nu


def _check_kl(got, nu, mu):
    ref = discrete_kl(nu.support, nu.weights, mu.support, mu.weights)
    require(close(got, ref, 1e-9), f"relative entropy {got!r} != reference {ref!r}")


def _real_job(kind, mu, nu, s):
    def run():
        w, plan = cx.wasserstein_exact(mu, nu, s)
        return w, plan, cx.relative_entropy_discrete(nu, mu)

    def check(out):
        w, plan, kl = out
        x, y = np.array(mu.support), np.array(nu.support)
        ref = quantile_ws(x, mu.weights, y, nu.weights, s)
        require(close(w, ref), f"W_{s} {w!r} != quantile formula {ref!r}")
        plan.validate(np.abs(x[:, None] - y[None, :]) ** s)
        _check_kl(kl, nu, mu)

    return Job(kind, run, check)


def _plane_job(kind, mu, nu, s):
    def run():
        w, plan = cx.wasserstein_exact(mu, nu, s)
        return w, plan, cx.relative_entropy_discrete(nu, mu)

    def check(out):
        w, plan, kl = out
        px, py = np.array(mu.support), np.array(nu.support)
        plan.validate(l1_cost(px, py, s))
        # projections are 1-Lipschitz for the l1 product metric
        for c in range(px.shape[1]):
            lb = quantile_ws(px[:, c], mu.weights, py[:, c], nu.weights, s)
            require(w >= lb - 1e-9, f"W_{s} {w!r} below the projection bound {lb!r}")
        _check_kl(kl, nu, mu)

    return Job(kind, run, check)


def _euclidean_space(rng, n, dim):
    """n Gaussian points of R^dim as a FiniteMetricSpace."""
    pts = rng.normal(0.0, 1.0, (n, dim))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(dist, 0.0)
    return cx.FiniteMetricSpace(tuple(range(n)), (dist + dist.T) / 2.0)


def _finite_job(kind, space, rng, s, dual):
    n = space.n_points
    mu = cx.DiscreteMeasure(tuple(range(n)), _weights(rng, n), space=space)
    nu = cx.DiscreteMeasure(tuple(range(n)), _weights(rng, n), space=space)

    def run():
        w, plan = cx.wasserstein_exact(mu, nu, s)
        w_dual = cx.kantorovich_dual_w1(mu, nu)[0] if dual else None
        return w, plan, w_dual, cx.relative_entropy_discrete(nu, mu)

    def check(out):
        w, plan, w_dual, kl = out
        d = np.asarray(space.dist)
        plan.validate(d**s)
        if dual:
            require(close(w, w_dual), f"primal W1 {w!r} != dual {w_dual!r}")
        _check_kl(kl, nu, mu)

    return Job(kind, run, check)


def _gaussian_job(kind, rng, dim):
    def spd():
        a = rng.normal(0.0, 1.0, (dim, dim))
        return a @ a.T / dim + 0.1 * np.eye(dim)

    m1, m2 = rng.normal(0.0, 1.0, dim), rng.normal(0.0, 1.0, dim)
    c1, c2 = spd(), spd()
    g1, g2 = cx.GaussianMeasure(m1, c1), cx.GaussianMeasure(m2, c2)

    def check(w):
        ref = bures_w2(m1, g1.cov, m2, g2.cov)
        require(close(w, ref, 1e-6), f"Gaussian W2 {w!r} != reference {ref!r}")

    return Job(kind, lambda: cx.wasserstein_gaussian_w2(g1, g2), check)


def distances(sz: Sizes, deck: int, workdir: str) -> list[Job]:
    jobs = []
    for slot in range(3):
        rng = sz.rng(slot, deck)
        n = _logint(50, 200, sz.u(slot, deck))
        s = (1.0, 1.5, 2.0)[(slot + deck) % 3]
        jobs.append(_real_job("real_lp", *_real_pair(rng, n), s))
    for slot in range(3, 6):
        rng = sz.rng(slot, deck)
        n = int(round(_lerp(50, 150, sz.u(slot, deck))))
        s = (1.0, 2.0)[(slot + deck) % 2]
        jobs.append(_plane_job("plane_lp", *_plane_pair(rng, n), s))
    for slot in range(6, 8):
        rng = sz.rng(slot, deck)
        n = int(round(_lerp(60, 150, sz.u(slot, deck))))
        s = (1.0, 1.5, 2.0)[(slot + deck) % 3]
        jobs.append(_finite_job("finite_lp", _euclidean_space(rng, n, 3), rng, s, dual=False))
    rng = sz.rng(8, deck)
    n = int(round(_lerp(30, 60, sz.u(8, deck))))
    jobs.append(_finite_job("finite_dual", _euclidean_space(rng, n, 3), rng, 1.0, dual=True))
    # a minority of pairs above the column-generation threshold: a 2-D pair
    # every eighth deck and a real-line pair every sixteenth
    rng = sz.rng(9, deck)
    if deck % 16 == 0:
        # the two ends of the 300-600 range; the first, the largest job of
        # the batch, sets the peak memory
        n = 600 if deck == 0 else 300
        jobs.append(_real_job("colgen_real", *_real_pair(rng, n), (1.0, 2.0)[deck // 16 % 2]))
    elif deck % 8 == 4:
        jobs.append(_plane_job("colgen_plane", *_plane_pair(rng, 250), 1.0))
    for slot in (10, 11):
        rng = sz.rng(slot, deck)
        jobs.append(_gaussian_job("gaussian_w2", rng, int(round(_lerp(2, 20, sz.u(slot, deck))))))
    return jobs


# ============================================================== certify

def _line_measure(rng, n):
    x = np.sort(rng.uniform(-1.0, 1.0, n) * rng.uniform(0.5, 2.0))
    return cx.DiscreteMeasure(tuple(x.tolist()), _weights(rng, n))


def _hoeffding(mu):
    """D^2/4: every 1-Lipschitz function has range at most the diameter D."""
    return float(_distances(mu).max()) ** 2 / 4.0


def _distances(mu):
    if mu.space is not None:
        return np.asarray(mu.space.dist)[np.ix_(mu.support, mu.support)]
    x = np.array(mu.support, dtype=float)
    return np.abs(x[:, None] - x[None, :])


def _check_gc_cert(cert, mu, expect):
    require(cert.verdict == expect, f"GC verdict {cert.verdict} at kappa {cert.constant!r}, expected {expect}")
    wit = cert.witness
    ref = gc_slack_ref(mu.weights, wit["f_values"], cert.constant, wit["t"])
    require(close(ref, cert.worst_slack, 1e-9), "GC witness does not reach the reported slack")
    f = np.asarray(wit["f_values"])
    require(np.all(np.abs(f[:, None] - f[None, :]) <= _distances(mu) + 1e-9), "GC witness is not 1-Lipschitz")


def _check_ts_cert(cert, mu, expect):
    if expect is not None:
        require(cert.verdict == expect, f"T_{cert.order_s} verdict {cert.verdict} at alpha {cert.constant!r}, expected {expect}")
    wit = cert.witness
    x = np.array(mu.support, dtype=float)
    w = quantile_ws(np.array(wit["support"], float), wit["weights"], x, mu.weights, cert.order_s)
    kl = discrete_kl(wit["support"], wit["weights"], mu.support, mu.weights)
    ref = w - math.sqrt(2.0 * kl / cert.constant)
    require(close(ref, cert.worst_slack, 1e-9), "T_s witness does not reach the reported slack")


def _replayed(cert, **data):
    try:
        cx.replay(cert, **data)
    except cx.InputError as exc:
        if cert.inequality == "T_s" and cert.witness["family_index"] == 0 and cert.worst_slack == 0.0:
            raise CheckFailed(f"replay of a T_s certificate whose witness is mu itself: {exc}",
                              defect="certify-ts-replay-roundoff") from exc
        raise
    return cert


def _gc_job(kind, mu, kappa, expect, family_size=64):
    return Job(
        kind,
        lambda: _replayed(cx.check_gc(mu, kappa, family_size=family_size), mu=mu),
        lambda cert: _check_gc_cert(cert, mu, expect),
    )


def _ts_job(kind, mu, s, alpha, expect):
    return Job(
        kind,
        lambda: _replayed(cx.check_transport(mu, alpha, s), mu=mu),
        lambda cert: _check_ts_cert(cert, mu, expect),
    )


def _lsi_job(kind, rng, u, bimodal, factor):
    sigma = _lerp(0.5, 2.0, rng.random())
    points = int(round(_lerp(201, 801, u)))
    grid = np.linspace(-6.0 * sigma, 6.0 * sigma, points)
    density = np.exp(-(grid**2) / (2.0 * sigma**2))
    bump = 0.0
    if bimodal:
        bump = _lerp(1.0, 4.0, rng.random())
        c, width = _lerp(1.0, 2.0, rng.random()) * sigma, _lerp(0.2, 0.4, rng.random()) * sigma
        density = density * (1.0 + bump * np.exp(-((grid - c) ** 2) / (2.0 * width**2)))
    # Gaussian LSI constant 1/sigma^2; a bounded perturbation of the log
    # density by log(1 + bump) costs at most that factor (Holley-Stroock)
    alpha = factor / (sigma**2 * (1.0 + bump))
    expect = "pass" if factor <= 1.0 else "fail"

    def check(cert):
        require(cert.verdict == expect, f"LSI verdict {cert.verdict} at alpha {alpha!r}, expected {expect}")
        f = np.asarray(cert.witness["f_values"])
        w = density / density.sum()
        f2 = f**2
        m = float(np.dot(w, f2))
        ent = float(np.dot(w, np.where(f2 > 0, f2 * np.log(np.where(f2 > 0, f2, 1.0) / m), 0.0)))
        ref = ent - 2.0 / alpha * float(np.dot(w, np.gradient(f, cert.grid_h, edge_order=1) ** 2))
        require(close(ref, cert.worst_slack, 1e-9), "LSI witness does not reach the reported slack")

    return Job(kind, lambda: _replayed(cx.check_lsi_grid(grid, density, alpha), grid=grid, density=density), check)


def _best_constant_job(kind, rng, coin_like, points):
    if coin_like:
        gap = _lerp(0.5, 2.0, rng.random())
        mu = cx.DiscreteMeasure((0.0, gap), np.array([0.5, 0.5]))
        exact = gap * gap / 4.0
    else:
        mu = _line_measure(rng, points)
        exact = None
    x = np.array(mu.support)
    var = float(np.dot(mu.weights, (x - np.dot(mu.weights, x)) ** 2))
    hoeffding = _hoeffding(mu)

    def run():
        return cx.best_constant(lambda k: cx.check_gc(mu, k, family_size=8), (0.5 * var, 1.01 * hoeffding))

    def check(kappa):
        if exact is not None:
            require(abs(kappa - exact) <= 1e-3 * exact, f"best constant {kappa!r} != {exact!r}")
        require(var * (1 - 1e-3) <= kappa <= hoeffding * (1 + 1e-3),
                f"best constant {kappa!r} outside [Var, D^2/4] = [{var!r}, {hoeffding!r}]")

    return Job(kind, run, check)


def _small_space_measure(rng, n):
    space = _euclidean_space(rng, n, 2)
    return cx.DiscreteMeasure(tuple(range(n)), _weights(rng, n), space=space)


def _variance_of_distance(mu):
    """Variance of d(., x_0), a 1-Lipschitz function in every test family."""
    f = _distances(mu)[:, 0]
    return float(np.dot(mu.weights, (f - np.dot(mu.weights, f)) ** 2))


def certify(sz: Sizes, deck: int, workdir: str) -> list[Job]:
    jobs = []
    lsi = [(False, 1.0), (False, 4.0), (True, 1.0), (False, 1.0), (True, 1.0)]
    for slot, (bimodal, factor) in enumerate(lsi):
        jobs.append(_lsi_job("lsi_grid", sz.rng(slot, deck), sz.u(slot, deck), bimodal, factor))
    # GC on 2-5 points: the Hoeffding constant D^2/4 passes and half the
    # variance of a distance function fails; deck 0 uses the coin flip,
    # whose answers are 1/4 (pass) and 0.2 (fail)
    coin = cx.DiscreteMeasure((0.0, 1.0), np.array([0.5, 0.5]))
    # support sizes cycle with the deck, so every batch holds the same sizes
    for slot, expect in ((5, "pass"), (6, "fail")):
        mu = coin if deck == 0 else _line_measure(sz.rng(slot, deck), 2 + (deck + slot) % 4)
        kappa = {"pass": _hoeffding(mu), "fail": 0.2 if deck == 0 else 0.5 * _variance_of_distance(mu)}[expect]
        jobs.append(_gc_job("gc_small", mu, kappa, expect, family_size=16))
    for slot, expect in ((7, "pass"), (8, "fail")):
        mu = _small_space_measure(sz.rng(slot, deck), 3 + (deck + slot) % 3)
        kappa = {"pass": _hoeffding(mu), "fail": 0.5 * _variance_of_distance(mu)}[expect]
        jobs.append(_gc_job("gc_small", mu, kappa, expect, family_size=16))
    mu = _line_measure(sz.rng(9, deck), int(round(_lerp(20, 50, sz.u(9, deck)))))
    jobs.append(_gc_job("gc_mid", mu, _hoeffding(mu), "pass"))
    # T_1 at the Pinsker constant 4/D^2 passes; T_2 is checked through its witness
    mu = _line_measure(sz.rng(10, deck), int(round(_lerp(20, 40, sz.u(10, deck)))))
    jobs.append(_ts_job("ts1", mu, 1.0, 1.0 / _hoeffding(mu), "pass"))
    mu = _line_measure(sz.rng(11, deck), int(round(_lerp(20, 40, sz.u(11, deck)))))
    jobs.append(_ts_job("ts2", mu, 2.0, 1.0 / _hoeffding(mu), None))
    mu = _line_measure(sz.rng(12, deck), 2 + deck % 4)

    def bg_check(out, mu=mu):
        require(out["agree"] and out["gc_verdict"] == "pass",
                f"BG duality at Hoeffding kappa: gc {out['gc_verdict']}, t1 {out['t1_verdict']}")
        _check_gc_cert(out["gc_certificate"], mu, "pass")
        _check_ts_cert(out["t1_certificate"], mu, "pass")

    def bg_run(mu=mu):
        out = cx.check_bg_duality(mu, _hoeffding(mu))
        _replayed(out["gc_certificate"], mu=mu)
        _replayed(out["t1_certificate"], mu=mu)
        return out

    jobs.append(Job("bg_duality", bg_run, bg_check))
    # a heavy job on every other deck, in rotation: vertex enumeration on 6
    # points (line, then finite space), best_constant bisection, and T_1 on
    # 60-100 points
    rng, heavy = sz.rng(13, deck), deck % 8
    if heavy in (1, 5):
        mu = _line_measure(rng, 6) if heavy == 1 else _small_space_measure(rng, 6)
        jobs.append(_gc_job("gc_six", mu, _hoeffding(mu), "pass"))
    elif heavy == 3:
        jobs.append(_best_constant_job("best_constant", rng, coin_like=deck // 8 % 2 == 0, points=3))
    elif heavy == 7:
        mu = _line_measure(rng, int(round(_lerp(60, 100, rng.random()))))
        jobs.append(_ts_job("ts_large", mu, 1.0, 1.0 / _hoeffding(mu), "pass"))
    return jobs


# =============================================================== chains

def _cli_job(kind, argv, out, check, known_errors=None):
    def checked(code):
        with open(out) as fh:
            check(code, fh.read())

    return Job(kind, lambda: concentra.cli.main(argv + ["--out", out]), checked, known_errors or {}, cli_out=out)


def _json_ok(code, text, codes=(0,)):
    require(code in codes, f"exit code {code}")
    return json.loads(text)


_REGIMES = {  # formula -> (name of the dependence parameter, value per regime)
    "gc-markov": ("L", (0.6, 1.0, 1.3)),
    "gc-weak": ("R", (0.5, 1.0, 1.2)),
    "gc-general": ("M", (0.3, 0.8, 1.5)),
    "ts-markov": ("L", (0.5, 1.0, 1.4)),
    "ts-weak": ("R", (0.7, 1.0, 1.1)),
    "ts-general": ("M", (0.2, 0.7, 1.3)),
    "lsi-markov": ("L", (0.5, 2.0, 3.0)),  # alpha is 2
    "lsi-weak": ("R", (0.5, 2.0, 3.0)),
    "lsi-kernel": ("kappa", (0.5, 2.0, 3.0)),
    "lsi-contraction": ("L", (0.5, 1.0, 1.3)),
}
FORMULAS = sorted(_REGIMES) + ["arma", "ou"]


def _stable_matrix(rng, m, radius, symmetric=False):
    a = rng.normal(0.0, 1.0, (m, m))
    if symmetric:
        a = a + a.T
    return a * radius / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-12)


def _constants_job(rng, formula, regime, out):
    argv = ["constants", "--formula", formula, "--n", *map(str, range(1, 201))]
    if formula in _REGIMES:
        name, values = _REGIMES[formula]
        params = {name: values[regime], "kappa1": 1.5, "alpha": 2.0, "s": (1.0, 1.5, 2.0)[regime]}
        for k, v in params.items():
            argv += [f"--{k}", repr(v)]
    elif formula == "arma":
        # symmetric A at a fixed spectral radius: the n-independent series then
        # has the same length in every sweep, so each costs the same
        params = {"A": _stable_matrix(rng, 3, 0.6, symmetric=True).tolist(),
                  "B": rng.normal(0.0, 1.0, (3, 3)).tolist()}
        argv += ["--A", json.dumps(params["A"]), "--B", json.dumps(params["B"])]
    else:
        params = {"rho": _lerp(0.1, 2.0, rng.random()), "tau": _lerp(0.1, 1.0, rng.random())}
        argv += ["--rho", repr(params["rho"]), "--tau", repr(params["tau"])]

    def check(code, text):
        results = _json_ok(code, text)["results"]
        require(len(results) == 200, "constants sweep lost rows")
        for n, row in enumerate(results, start=1):
            ref = constant_oracle(formula, params, n)
            require(close(row["value"], ref, 1e-9), f"{formula} n={n}: {row['value']!r} != {ref!r}")

    return _cli_job("constants", argv, out, check)


def _tabular(rng, k, labels=True):
    model = {"kind": "tabular", "init": _weights(rng, k).tolist(),
             "transition": rng.dirichlet(np.full(k, 1.0), size=k).tolist()}
    if labels:
        model["labels"] = np.sort(rng.uniform(0.0, k, k)).tolist()
    return model


def _simulate_job(rng, kind, fmt, n_paths, out):
    n = 20
    if kind == "ou":
        model = {"kind": "ou", "rho": _lerp(0.2, 2.0, rng.random()), "tau": _lerp(0.1, 1.0, rng.random()),
                 "x0": _lerp(-1.0, 1.0, rng.random())}
    elif kind == "tabular":
        model = _tabular(rng, 10, labels=False)
    else:
        model = {"kind": "arma", "A": _stable_matrix(rng, 3, 0.8).tolist(),
                 "B": (0.5 * rng.normal(0.0, 1.0, (3, 3))).tolist()}
    argv = ["simulate", "--model", json.dumps(model), "--n", str(n), "--samples", str(n_paths),
            "--seed", str(int(rng.integers(2**31))), "--format", fmt]

    def check(code, text):
        require(code == 0, f"exit code {code}")
        if fmt == "json":
            vals = np.asarray(json.loads(text)["paths"], dtype=float)
        else:
            vals = np.loadtxt(text.splitlines()[2:], delimiter=",", ndmin=2)
        dim = 3 if kind == "arma" else 1
        require(vals.shape == (n_paths, n * dim), f"simulate wrote shape {vals.shape}")
        vals = vals.reshape(n_paths, n, dim)
        _check_sample_law(kind, model, vals, n)

    return _cli_job("simulate", argv, out, check)


def _check_sample_law(kind, model, vals, n):
    """Sample moments against the exact law, at 6 standard errors."""
    N = vals.shape[0]
    if kind == "tabular":
        margs = tabular_marginals(model["init"], model["transition"], n)
        for k, p in enumerate(margs):
            freq = np.bincount(vals[:, k, 0].astype(int), minlength=p.size) / N
            se = np.sqrt(p * (1 - p) / N) + 1e-12
            require(np.all(np.abs(freq - p) <= 6 * se + 1e-9), f"state frequencies off at step {k}")
        return
    if kind == "ou":
        theta, sigma2, m0, v0 = ou_kernel(model["rho"], model["tau"], model["x0"])
        mean, cov = gaussian_chain(theta, sigma2, m0, v0, n)
        var = np.diag(cov)[:, None]
    else:
        a, b = np.asarray(model["A"]), np.asarray(model["B"])
        cov_k = np.eye(3)
        var = []
        for _ in range(n):
            var.append(np.diag(cov_k))
            cov_k = a @ cov_k @ a.T + b @ b.T
        var, mean = np.array(var), np.zeros(n)
    emp_mean = vals.mean(axis=0)
    emp_var = vals.var(axis=0, ddof=1)
    require(np.all(np.abs(emp_mean - mean[:, None]) <= 6 * np.sqrt(var / N)), "sample means off")
    require(np.all(np.abs(emp_var - var) <= 6 * var * math.sqrt(2.0 / (N - 1))), "sample variances off")


def _verify_ou_job(rng, u, out):
    rho, tau, n = _lerp(0.2, 2.0, u[0]), _lerp(0.1, 1.0, u[1]), 10 + int(21 * u[2])
    x = _lerp(-1.0, 1.0, rng.random())
    argv = ["verify-ou", "--rho", repr(rho), "--tau", repr(tau), "--n", str(n), "--x", repr(x),
            "--samples", "100000", "--seed", str(int(rng.integers(2**31)))]

    def check(code, text):
        payload = _json_ok(code, text, codes=(0, 1))
        ref = constant_oracle("ou", {"rho": rho, "tau": tau}, n)
        require(close(payload["kappa_n"], ref, 1e-9), f"kappa_n {payload['kappa_n']!r} != {ref!r}")
        theta = math.exp(-rho * tau)
        mean = x * sum(theta**i for i in range(1, n + 1))
        require(close(payload["mean_Fn"], mean, 1e-9), f"mean_Fn {payload['mean_Fn']!r} != {mean!r}")
        for c in payload["checks"]:
            if c["check"] != "mgf":
                require(c["pass"], "OU cross-identity failed")
        # kappa_n and the mean are exact, so a failed MGF check is a false alarm
        missed = [f"s={c['s']}: {c['std_errors']:.3g} standard errors" for c in payload["checks"] if not c["pass"]]
        require(not missed, f"verify-ou falsified an exact constant (kappa_n={ref:.4g}): " + ", ".join(missed),
                defect="verify-ou-false-falsification")
        require(code == 0, f"exit code {code} with every check passing")

    return _cli_job("verify_ou", argv, out, check)


def _verify_arma_job(rng, u, deck, out):
    m = 2 + deck % 2
    a = _stable_matrix(rng, m, _lerp(0.2, 0.9, rng.random()))
    b = rng.normal(0.0, 1.0, (m, m))
    n = 5 + int(11 * u)
    argv = ["verify-arma", "--A", json.dumps(a.tolist()), "--B", json.dumps(b.tolist()), "--n", str(n)]

    def check(code, text):
        payload = _json_ok(code, text)
        require(close(payload["alpha"], arma_alpha(a, b), 1e-9), "ARMA alpha differs from the direct sum")
        for c in payload["checks"]:
            ref = arma_exact_alpha(a, b, c["n"])
            require(close(c["exact_gaussian_alpha"], ref, 1e-9), f"exact alpha at n={c['n']} differs")
            require(payload["alpha"] <= ref * (1 + 1e-9), f"ARMA alpha above the exact constant at n={c['n']}")

    return _cli_job("verify_arma", argv, out, check)


def _entropy_job(rng, u, workdir, tag, out):
    k, n = [(4, 6), (8, 4), (16, 3)][int(u * 3)]  # 4,096 paths each
    q, p = _tabular(rng, k, labels=False), _tabular(rng, k, labels=False)
    paths, w = tabular_paths(q["init"], q["transition"], n)
    qfile, pfile = os.path.join(workdir, f"{tag}.q.json"), os.path.join(workdir, f"{tag}.p.json")
    with open(qfile, "w") as fh:
        json.dump({"type": "discrete", "support": paths.tolist(), "weights": w.tolist()}, fh)
    with open(pfile, "w") as fh:
        json.dump(p, fh)

    def check(code, text):
        payload = _json_ok(code, text)
        p_paths, p_w = tabular_paths(p["init"], p["transition"], n)
        ref = discrete_kl(list(map(tuple, paths.tolist())), w, list(map(tuple, p_paths.tolist())), p_w)
        require(close(payload["total"], ref, 1e-9), f"chain-rule total {payload['total']!r} != KL {ref!r}")
        parts = payload["initial"] + math.fsum(payload["conditional"])
        require(close(parts, ref, 1e-9), "chain-rule terms do not add up to the KL")

    return _cli_job("entropy_chain", ["entropy", "--q", qfile, "--model", pfile], out, check)


def _exact_joint_ws(labels, q, p, n, s):
    """Exact W_s between two small tabular joint laws by a dense LP."""
    from scipy.optimize import linprog

    qi, qw = tabular_paths(q["init"], q["transition"], n)
    pi, pw = tabular_paths(p["init"], p["transition"], n)
    lab = np.asarray(labels)
    cost = (np.abs(lab[qi][:, None, :] - lab[pi][None, :, :]) ** s).sum(-1)
    nq, npp = cost.shape
    a_eq = np.vstack([np.kron(np.eye(nq), np.ones(npp)), np.kron(np.ones(nq), np.eye(npp))])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([qw, pw]), bounds=(0, None), method="highs")
    require(res.success, f"reference LP failed: {res.message}")
    return max(res.fun, 0.0) ** (1.0 / s)


def _couple_tab_job(rng, u, deck, out):
    k = _logint(4, 20, u)
    n = 3 + deck % 4
    s = (1.0, 1.5, 2.0)[deck % 3]
    q = _tabular(rng, k)
    p = dict(_tabular(rng, k), labels=q["labels"])
    argv = ["couple", "--p-model", json.dumps(p), "--q-model", json.dumps(q), "--n", str(n), "--s", repr(s)]

    def check(code, text):
        payload = _json_ok(code, text)
        bound = payload["upper_bound"]
        first = quantile_ws(q["labels"], q["init"], q["labels"], p["init"], s)
        require(close(payload["step_costs"][0] ** (1 / s), first), "first step is not the exact W_s of the initial laws")
        lb = marginal_lower_bound(q["labels"], (q["init"], q["transition"]), (p["init"], p["transition"]), n, s)
        require(bound >= lb - 1e-9, f"coupling bound {bound!r} below the marginal bound {lb!r}")
        if k**n <= 64:
            exact = _exact_joint_ws(q["labels"], q, p, n, s)
            require(bound >= exact - 1e-7, f"coupling bound {bound!r} below the exact W_s {exact!r}")

    return _cli_job("couple_tabular", argv, out, check)


def _couple_ou_job(rng, u, deck, out):
    rho, tau = _lerp(0.2, 2.0, rng.random()), _lerp(0.1, 1.0, rng.random())
    x0p, x0q = rng.normal(0.0, 1.0, 2)
    n, s = 2 + int(19 * u), (1.0, 2.0)[deck % 2]
    argv = ["couple", "--p-model", json.dumps({"kind": "ou", "rho": rho, "tau": tau, "x0": x0p}),
            "--q-model", json.dumps({"kind": "ou", "rho": rho, "tau": tau, "x0": x0q}),
            "--n", str(n), "--s", repr(s)]

    def check(code, text):
        bound = _json_ok(code, text)["upper_bound"]
        theta, sigma2, mp, v = ou_kernel(rho, tau, x0p)
        _, _, mq, _ = ou_kernel(rho, tau, x0q)
        # equal kernels: the joint laws are translates, so every W_s is the
        # l^s norm of the mean path gap
        mean_p, _ = gaussian_chain(theta, sigma2, mp, v, n)
        mean_q, _ = gaussian_chain(theta, sigma2, mq, v, n)
        exact = float(np.sum(np.abs(mean_p - mean_q) ** s) ** (1 / s))
        require(close(bound, exact, 1e-9), f"equal-kernel bound {bound!r} != exact {exact!r}")

    return _cli_job("couple_ou", argv, out, check)


def _gaussian_couple_check(p, q, n):
    def check(code, text):
        bound = _json_ok(code, text)["upper_bound"]
        mp, cp = gaussian_chain(p["theta"], p["sigma2"], 0.0, p.get("init_var", p["sigma2"]), n)
        mq, cq = gaussian_chain(q["theta"], q["sigma2"], 0.0, q.get("init_var", q["sigma2"]), n)
        exact = bures_w2(mq, cq, mp, cp)
        require(bound >= exact - 1e-9, f"coupling bound {bound!r} below the exact W2 {exact!r}",
                defect="coupling-gaussian-below-exact")

    return check


def _couple_gauss_job(p, q, n, resolution, out):
    argv = ["couple", "--p-model", json.dumps(dict(p, kind="gaussian_kernel")),
            "--q-model", json.dumps(dict(q, kind="gaussian_kernel")), "--n", str(n), "--s", "2"]
    if resolution is not None:
        argv += ["--resolution", str(resolution)]
    return _cli_job("couple_gaussian", argv, out, _gaussian_couple_check(p, q, n),
                    known_errors={"ResourceError": "coupling-atom-budget"})


def _audit_tab_job(rng, deck):
    k, n = [(4, 4), (3, 5)][deck % 2]
    s = (1.0, 1.5, 2.0)[deck % 3]
    pm = _tabular(rng, k)
    qms = [dict(_tabular(rng, k), labels=pm["labels"])]
    to_model = concentra.jsonio.model_from_json
    p_model, q_models = to_model(pm), [to_model(q) for q in qms]
    alpha_hyp, l_hyp = _lerp(0.5, 2.0, rng.random()), _lerp(0.2, 0.9, rng.random())

    def run():
        return cx.transport_inequality_audit(p_model, alpha_hyp, s, l_hyp, n, q_models)

    def check(rep):
        alpha_n = constant_oracle("ts-weak", {"alpha": alpha_hyp, "R": l_hyp, "s": s}, n)
        require(close(rep["alpha_n"], alpha_n, 1e-9), "audit alpha_n differs from the formula")
        pi, pw = tabular_paths(pm["init"], pm["transition"], n)
        for q, e in zip(qms, rep["entries"]):
            qi, qw = tabular_paths(q["init"], q["transition"], n)
            ent = discrete_kl(list(map(tuple, qi.tolist())), qw, list(map(tuple, pi.tolist())), pw)
            require(close(e["entropy"], ent, 1e-9), f"audit entropy {e['entropy']!r} != KL {ent!r}")
            lb = marginal_lower_bound(pm["labels"], (q["init"], q["transition"]), (pm["init"], pm["transition"]), n, s)
            require(lb - 1e-9 <= e["w_exact"] <= e["w_coupling_bound"] + 1e-9,
                    f"audit W_s {e['w_exact']!r} outside [marginal bound, coupling bound]")
            slack = e["w_exact"] - math.sqrt(2.0 * ent / rep["alpha_n"])
            require(close(e["slack"], slack, 1e-9), "audit slack arithmetic differs")
        require(rep["verdict"] == ("pass" if rep["worst_slack"] <= 1e-9 else "fail"), "audit verdict inconsistent")

    return Job("audit_tabular", run, check)


def _audit_gauss_job(rng, u, deck):
    n = 2 + deck % 2
    p = {"theta": _lerp(0.2, 0.9, u[0]), "sigma2": _lerp(0.5, 2.0, u[1])}
    shifted = dict(p, init_mean=_lerp(-1.0, 1.0, rng.random()))
    other = {"theta": _lerp(0.2, 0.9, u[2]), "sigma2": _lerp(0.5, 2.0, u[3])}
    p_model = cx.GaussianKernelModel(**p)
    q_models = [cx.GaussianKernelModel(**shifted), cx.GaussianKernelModel(**other)]
    alpha_hyp, l_hyp = _lerp(0.5, 2.0, rng.random()), p["theta"]

    def run():
        return cx.transport_inequality_audit(p_model, alpha_hyp, 2.0, l_hyp, n, q_models)

    def check(rep):
        mp, cp = gaussian_chain(p["theta"], p["sigma2"], 0.0, p["sigma2"], n)
        below = []
        for q, e in zip(q_models, rep["entries"]):
            mq, cq = gaussian_chain(q.theta, q.sigma2, q.init_mean, q.init_var, n)
            exact = bures_w2(mq, cq, mp, cp)
            require(close(e["w_exact"], exact, 1e-7), f"audit W2 {e['w_exact']!r} != Bures {exact!r}")
            if e["w_coupling_bound"] < exact - 1e-9:
                below.append(f"{e['w_coupling_bound']!r} < {exact!r}")
        require(not below, "audit coupling bound below the exact W2: " + ", ".join(below),
                defect="coupling-gaussian-below-exact")

    return Job("audit_gaussian", run, check)


def chains_prologue(sz: Sizes, workdir: str) -> list[Job]:
    out = os.path.join(workdir, "prologue.out")
    # the two repro pairs of ROADMAP item 1 (s = 2, unit initial variance),
    # the second also at the default resolution
    p1, q1 = {"theta": 0.0, "sigma2": 1.0, "init_var": 1.0}, {"theta": 0.0, "sigma2": 4.0, "init_var": 1.0}
    p2, q2 = {"theta": 0.5, "sigma2": 1.0, "init_var": 1.0}, {"theta": 0.9, "sigma2": 2.0, "init_var": 1.0}
    return [
        # 3-dim ARMA paths write three times the values of a 1-dim chain, so
        # one per batch rather than one per deck
        _simulate_job(sz.rng(99, 0), "arma", "csv", 10_000, out),
        _couple_gauss_job(p1, q1, 2, None, out),
        _couple_gauss_job(p2, q2, 3, 32, out),
        _couple_gauss_job(p2, q2, 3, None, out),
    ]


def chains(sz: Sizes, deck: int, workdir: str) -> list[Job]:
    out = os.path.join(workdir, "job.out")
    jobs = []
    for slot in range(4):
        idx = 4 * deck + slot
        jobs.append(_constants_job(sz.rng(20 + slot, deck), FORMULAS[idx % len(FORMULAS)], idx // len(FORMULAS) % 3, out))
    kind, fmt = ("ou", "tabular")[deck % 2], ("csv", "json")[deck // 2 % 2]
    jobs.append(_simulate_job(sz.rng(3, deck), kind, fmt, _logint(10_000, 20_000, sz.u(3, deck)), out))
    jobs.append(_verify_ou_job(sz.rng(4, deck), [sz.u(slot, deck) for slot in (4, 40, 41)], out))
    jobs.append(_verify_arma_job(sz.rng(5, deck), sz.u(5, deck), deck, out))
    for slot in (6, 12):
        jobs.append(_entropy_job(sz.rng(slot, deck), sz.u(slot, deck), workdir, f"entropy{deck}-{slot}", out))
    jobs.append(_couple_tab_job(sz.rng(7, deck), sz.u(7, deck), deck, out))
    jobs.append(_couple_ou_job(sz.rng(8, deck), sz.u(8, deck), deck, out))
    u = [sz.u(slot, deck) for slot in (30, 31, 32, 33)]
    n = 2 + deck % 3
    p = {"theta": _lerp(0.2, 0.9, u[0]), "sigma2": _lerp(0.5, 2.0, u[1])}
    q = {"theta": _lerp(0.2, 0.9, u[2]), "sigma2": _lerp(0.5, 2.0, u[3])}
    jobs.append(_couple_gauss_job(p, q, n, {2: None, 3: 32, 4: 16}[n], out))
    if deck % 2 == 1:
        jobs.append(_audit_tab_job(sz.rng(10, deck), deck // 2))
    jobs.append(_audit_gauss_job(sz.rng(11, deck), [sz.u(slot, deck) for slot in (50, 51, 52, 53)], deck))
    return jobs


@dataclass(frozen=True)
class Workload:
    index: int
    deck: Callable
    prologue: Callable | None
    deck_s: float  # nominal seconds per deck at the commit that defined it
    prologue_s: float


WORKLOADS = {
    "distances": Workload(0, distances, None, 1.0, 0.0),
    "certify": Workload(1, certify, None, 3.75, 0.0),
    "chains": Workload(2, chains, chains_prologue, 2.4, 12.0),
}


def deck_count(name: str, seconds: float) -> int:
    wl = WORKLOADS[name]
    return max(1, int(round((seconds - wl.prologue_s) / wl.deck_s)))


def build(name: str, seed: int, seconds: float, workdir: str) -> tuple[list[Job], list[list[Job]]]:
    """The prologue and the decks of one batch."""
    wl = WORKLOADS[name]
    decks = deck_count(name, seconds)
    sz = Sizes(seed, wl.index, decks)
    prologue = wl.prologue(sz, workdir) if wl.prologue else []
    return prologue, [wl.deck(sz, d, workdir) for d in range(decks)]
